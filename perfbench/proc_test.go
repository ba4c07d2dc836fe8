package main

import (
	"os"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a parenthesis must not shift fields.
	stat := "4242 (rob opt) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 " +
		"250 75 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want {
		t.Errorf("parseStatCPU = %v, want %v (utime 250 + stime 75 ticks)", got, want)
	}
	for _, bad := range []string{"no command field", "1 (x) S 1 2", "1 (x) S 1 2 3 4 5 6 7 8 9 10 x 5 0"} {
		if _, err := parseStatCPU(bad); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	status := "Name:\troboptd\nVmPeak:\t  900000 kB\nVmHWM:\t   40960 kB\nVmRSS:\t   30000 kB\n"
	for field, want := range map[string]int64{"VmHWM": 40960 << 10, "VmRSS": 30000 << 10} {
		got, err := parseStatusKB(status, field)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("parseStatusKB(%s) = %d, want %d", field, got, want)
		}
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseStatusKB(bad, "VmHWM"); err == nil {
			t.Errorf("parseStatusKB(%q) succeeded, want an error", bad)
		}
	}
}

// The readers work on this very process: CPU time grows with work and the
// resident set and its peak are positive.
func TestProcReadersOnSelf(t *testing.T) {
	pid := os.Getpid()
	before, err := processCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	after, err := processCPU(pid)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Errorf("CPU time did not grow over a busy loop: %v then %v (%d iterations)", before, after, x)
	}
	for _, field := range []string{"VmRSS", "VmHWM"} {
		b, err := processMemory(pid, field)
		if err != nil {
			t.Fatal(err)
		}
		if b <= 0 {
			t.Errorf("%s = %d, want > 0", field, b)
		}
	}
}

func TestParseHostCPU(t *testing.T) {
	stat := "cpu  100 5 20 800 10 0 5 60 0 0\ncpu0 50 2 10 400 5 0 2 30 0 0\n"
	steal, total, err := parseHostCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if steal != 60 || total != 1000 {
		t.Errorf("parseHostCPU = steal %d total %d, want 60 and 1000", steal, total)
	}
	if _, _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("parseHostCPU accepted a stat without a cpu line")
	}
}
