package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. The
// kernel fixes it at 100 on every Linux architecture Go supports.
const clockTicks = 100

// processCPU returns the CPU time (user + system, all threads) the process
// has consumed so far, from /proc/<pid>/stat.
func processCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(raw))
}

// parseStatCPU extracts utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) is parenthesized and may itself contain spaces
// or parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no command field in %q", stat)
	}
	// After the command: state is field 3, utime field 14, stime field 15.
	fields := strings.Fields(stat[end+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command, want at least 13", len(fields))
	}
	var ticks int64
	for _, f := range fields[11:13] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc stat: bad CPU field %q: %w", f, err)
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// processMemory returns a /proc/<pid>/status memory figure in bytes:
// "VmRSS" for the current resident set, "VmHWM" for its peak.
func processMemory(pid int, field string) (int64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(raw), field)
}

// parseStatusKB extracts a "<field>: <n> kB" line of /proc/<pid>/status,
// in bytes.
func parseStatusKB(status, field string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, field+":")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected %s line %q", field, line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: bad %s %q: %w", field, fields[0], err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no %s line", field)
}

// hostCPU returns the machine-wide busy, steal and total CPU ticks from the
// first line of /proc/stat. Steal is time the hypervisor ran someone else
// while this machine wanted the CPU.
func hostCPU() (steal, total int64, err error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	return parseHostCPU(string(raw))
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, then guest time that user
// already includes.
func parseHostCPU(stat string) (steal, total int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat: unexpected first line %q", line)
	}
	for i, f := range fields[1:9] {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat: bad CPU field %q: %w", f, err)
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
