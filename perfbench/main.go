// Command perfbench is the repository's benchmark. One run trains the model
// roboptd -quick trains, boots roboptd replicas built from the checkout,
// drives one named workload over loopback from this single process, checks
// every answer against an in-process reference, and prints its metrics as
// one JSON object on the last line of standard output. With -trace 1 it
// also replays the workload in process with spans around each layer's
// public calls and prints the per-layer metrics instead. See README.md.
//
//	bash perfbench/run.sh --workload cold-plans --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/registry"
)

// setupReps is how many times a run writes, loads and boots from the
// artifact; setup_s reports the median.
const setupReps = 3

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	roboptd  string
	workdir  string
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.IntVar(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 replays the workload in process with per-layer spans and reports per-layer metrics")
	flag.StringVar(&cfg.roboptd, "roboptd", "", "roboptd binary built from the checkout under test")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for model artifacts, replica logs and span dumps")
	summary := flag.Bool("summarize", false, "instead of running, summarize the result lines in the files named as arguments")
	flag.Parse()
	if *summary {
		if err := summarize(os.Stdout, flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	cfg.trace = trace == 1
	if cfg.workload == "" || cfg.seconds < 1 || (trace != 0 && trace != 1) || cfg.roboptd == "" || cfg.workdir == "" {
		flag.Usage()
		os.Exit(2)
	}

	// A signal stops the replicas before exiting; they also die with this
	// process (Pdeathsig) if it is killed outright.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		running.stopAll()
		fmt.Fprintln(os.Stderr, "perfbench: stopped by", s)
		os.Exit(1)
	}()

	out, err := run(cfg)
	running.stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	report, _ := json.Marshal(map[string]any{"report": out.report})
	fmt.Println(string(report))
	final, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(final))
}

// running tracks the live fleet so every exit path stops it.
var running liveFleets

type liveFleets struct {
	mu sync.Mutex
	fs []fleet
}

func (l *liveFleets) add(f fleet) {
	l.mu.Lock()
	l.fs = append(l.fs, f)
	l.mu.Unlock()
}

func (l *liveFleets) stopAll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, f := range l.fs {
		f.stop()
	}
	l.fs = nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type output struct {
	result result
	report map[string]any
}

// run performs one benchmark run and returns its result.
func run(cfg config) (*output, error) {
	plats := platform.All()
	avail := platform.DefaultAvailability()
	w, err := buildWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return nil, err
	}
	if err := requireDistinct(w.items, plats, avail); err != nil {
		return nil, fmt.Errorf("%s: workload guard: %w", w.name, err)
	}
	dir := filepath.Join(cfg.workdir, "run-"+w.name)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	// Set-up: train, then write, load and boot setupReps times.
	model, tt, err := trainModel(plats, avail)
	if err != nil {
		return nil, err
	}
	art, err := newArtifact(model, plats)
	if err != nil {
		return nil, err
	}
	artPath := filepath.Join(dir, "model.json")
	if w.shared {
		artPath = filepath.Join(dir, "store")
	}
	var boots, loads []float64
	var f fleet
	var served *registry.Artifact
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		if err := writeArtifact(art, artPath, w.shared); err != nil {
			return nil, err
		}
		t1 := time.Now()
		if served, err = loadArtifact(artPath, w.shared); err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(t1).Seconds())
		if f, err = bootFleet(context.Background(), cfg.roboptd, dir, artPath, w.replicas, w.shared); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		if r < setupReps-1 {
			f.stop()
		}
	}
	running.add(f)
	setup := tt.generate.Seconds() + tt.fit.Seconds() + median(boots)

	refStart := time.Now()
	if err := computeReferences(w.items, served.Model, plats, avail); err != nil {
		return nil, err
	}
	refTime := time.Since(refStart)
	urls := make([]string, len(f))
	for i, r := range f {
		urls[i] = r.url
	}
	if err := sendAll(urls, w.items, w.warm); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	// The timed phase. A traced run spends half its time here and half on
	// the in-process replay.
	phase := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		phase /= 2
	}
	// Collect the set-up's garbage now, and let the client's heap grow
	// during the phase, so the load generator's GC takes little CPU from
	// the replicas it measures.
	runtime.GC()
	gcPercent := debug.SetGCPercent(400)
	ph, err := timedPhase(f, urls, w, phase)
	debug.SetGCPercent(gcPercent)
	if err != nil {
		return nil, err
	}
	samples, elapsed := ph.samples, ph.elapsed
	tally := tallySamples(samples, w.allHits)
	lat := make([]float64, 0, tally.ok)
	for _, s := range samples {
		if s.failure == "" {
			lat = append(lat, ms(s.latency))
		}
	}
	var hwm int64
	for _, pid := range f.pids() {
		b, err := processMemory(pid, "VmHWM")
		if err != nil {
			return nil, err
		}
		hwm += b
	}

	calm := calmWindows(ph.windows)
	windowSteal := make([]float64, len(ph.windows))
	for i, win := range ph.windows {
		windowSteal[i] = math.Round(win.steal*1000) / 1000
	}

	distinct := distinctItems(w.seq)
	quality := make([]float64, 0, len(distinct))
	for _, i := range distinct {
		quality = append(quality, w.items[i].ref.simSec/w.items[i].ref.singleSec)
	}
	report := map[string]any{
		"workload":         w.name,
		"seed":             cfg.seed,
		"sent":             len(samples),
		"succeeded":        tally.ok,
		"failed":           len(samples) - tally.ok,
		"failures":         tally.failures,
		"x_cache":          tally.cache,
		"error_share":      fraction(float64(len(samples)-tally.ok), float64(len(samples))),
		"degraded_share":   fraction(float64(tally.failures["degraded"]), float64(tally.ok+tally.failures["degraded"])),
		"elapsed_s":        elapsed.Seconds(),
		"sequence_used_up": !w.cycle && len(samples) >= len(w.seq),
		"distinct_plans":   len(distinct),
		"ok_per_second":    okPerSecond(samples),
		"peak_rss_mb":      float64(hwm) / (1 << 20),
		"host_steal_share": ph.stealShare,
		"latency_p99_ms":   percentile(lat, 99),
		"windows":          len(ph.windows),
		"calm_windows":     len(calm),
		"window_steal":     windowSteal,
		"whole_phase": map[string]float64{
			"throughput_rps": float64(tally.ok) / elapsed.Seconds(),
			"latency_p50_ms": percentile(lat, 50),
			"latency_p90_ms": percentile(lat, 90),
			"cpu_ms_per_req": ms(ph.cpu) / math.Max(1, float64(tally.ok)),
		},
		"setup": map[string]any{
			"tdgen_generate_s": tt.generate.Seconds(),
			"mlmodel_fit_s":    tt.fit.Seconds(),
			"boot_s":           boots,
			"references_s":     refTime.Seconds(),
		},
	}
	res := result{
		Correct:   tally.ok == len(samples) && len(samples) > 0,
		Attempted: len(samples),
		Failed:    len(samples) - tally.ok,
	}
	if !cfg.trace {
		win := windowed(samples, calm)
		res.Metrics = map[string]metric{
			"setup_s":            {setup, "s"},
			"throughput_rps":     {midMean(win.rps), "req/s"},
			"latency_p50_ms":     {midMean(win.p50), "ms"},
			"latency_p90_ms":     {midMean(win.p90), "ms"},
			"cpu_ms_per_req":     {midMean(win.cpuPerReq), "ms"},
			"server_rss_mb":      {median(ph.rss) / (1 << 20), "MiB"},
			"plan_sim_vs_single": {geomean(quality), "ratio"},
		}
		return &output{result: res, report: report}, nil
	}

	layers, replay, err := tracedReplay(w, served, plats, avail, phase, filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return nil, err
	}
	res.Attempted += replay.attempted
	res.Failed += replay.failed
	res.Correct = res.Correct && replay.failed == 0
	report["replay"] = replay.report
	sent := map[int]bool{}
	for _, s := range samples {
		sent[s.item] = true
	}
	fleetLayers(layers, ph.before, ph.after, len(sent))
	layers["http.overhead_us"] = metric{median(lat)*1000 - replay.untracedHandlerP50us, "us"}
	layers["tdgen.generate_s"] = metric{tt.generate.Seconds(), "s"}
	layers["mlmodel.fit_s"] = metric{tt.fit.Seconds(), "s"}
	layers["registry.artifact_load_ms"] = metric{median(loads) * 1000, "ms"}
	res.Metrics = layers
	return &output{result: res, report: report}, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// phaseOut is what the timed phase measured.
type phaseOut struct {
	samples []sample
	elapsed time.Duration
	// cpu is the replicas' CPU time over the phase; windows cut the phase
	// into windowLen slices; rss is the summed resident set, sampled every
	// 100ms; before and after are the /metricz snapshots.
	cpu           time.Duration
	windows       []window
	rss           []float64
	before, after []obs.Snapshot
	// stealShare is the share of the machine's CPU time the hypervisor
	// gave to other guests during the phase, a sign of a noisy host.
	stealShare float64
}

// timedPhase drives the workload's sequence at the replicas for d and
// measures the replicas meanwhile.
func timedPhase(f fleet, urls []string, w *plannedWorkload, d time.Duration) (*phaseOut, error) {
	ph := &phaseOut{}
	var err error
	if ph.before, err = scrapeFleet(urls); err != nil {
		return nil, err
	}
	cpu0, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	steal0, total0, err := hostCPU()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	sampled := make(chan error, 1)
	start := time.Now()
	go func() {
		// Every sampleEvery until d: the replicas' resident set, and at
		// each window boundary their CPU time and the host's steal.
		const sampleEvery = 100 * time.Millisecond
		from, cpuFrom, stealFrom, totalFrom := time.Duration(0), cpu0, steal0, total0
		for k := 1; time.Duration(k)*sampleEvery <= d; k++ {
			t := time.NewTimer(time.Until(start.Add(time.Duration(k) * sampleEvery)))
			select {
			case <-stop:
				t.Stop()
				sampled <- nil
				return
			case <-t.C:
			}
			var sum int64
			for _, pid := range f.pids() {
				b, err := processMemory(pid, "VmRSS")
				if err != nil {
					sampled <- err
					return
				}
				sum += b
			}
			ph.rss = append(ph.rss, float64(sum))
			if time.Duration(k)*sampleEvery%windowLen == 0 {
				at := time.Since(start)
				cpu, err := fleetCPU(f)
				if err != nil {
					sampled <- err
					return
				}
				steal, total, err := hostCPU()
				if err != nil {
					sampled <- err
					return
				}
				ph.windows = append(ph.windows, window{
					from: from, to: at, cpu: cpu - cpuFrom,
					steal: fraction(float64(steal-stealFrom), float64(total-totalFrom)),
				})
				from, cpuFrom, stealFrom, totalFrom = at, cpu, steal, total
			}
		}
		<-stop
		sampled <- nil
	}()
	ph.samples, ph.elapsed = closedLoop(urls, w.items, w.seq, w.cycle, w.conns, start, d)
	close(stop)
	if err := <-sampled; err != nil {
		return nil, err
	}
	cpu1, err := fleetCPU(f)
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	steal1, total1, err := hostCPU()
	if err != nil {
		return nil, err
	}
	ph.stealShare = fraction(float64(steal1-steal0), float64(total1-total0))
	if ph.after, err = scrapeFleet(urls); err != nil {
		return nil, err
	}
	return ph, nil
}

// okPerSecond counts successful requests by the second of the phase they
// completed in, to show stalls within a run.
func okPerSecond(samples []sample) []int {
	var out []int
	for _, s := range samples {
		if s.failure != "" {
			continue
		}
		sec := int(s.end / time.Second)
		for len(out) <= sec {
			out = append(out, 0)
		}
		out[sec]++
	}
	return out
}

func fleetCPU(f fleet) (time.Duration, error) {
	var total time.Duration
	for _, pid := range f.pids() {
		c, err := processCPU(pid)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// tally counts a phase's outcomes.
type tally struct {
	ok       int
	failures map[string]int
	cache    map[string]int
}

// tallySamples counts successes, failures by kind and X-Cache
// dispositions. With allHits, a success that was not a cache hit is a
// failure: hot-repeat exists to measure the hit path only.
func tallySamples(samples []sample, allHits bool) tally {
	t := tally{failures: map[string]int{}, cache: map[string]int{}}
	for i := range samples {
		s := &samples[i]
		if s.failure == "" && allHits && s.cache != "hit" {
			s.failure = "not-a-hit"
		}
		disp := s.cache
		if disp == "" {
			disp = "none"
		}
		t.cache[disp]++
		if s.failure == "" {
			t.ok++
		} else {
			t.failures[s.failure]++
		}
	}
	return t
}

// distinctItems lists the distinct items of the timed sequence whose plan
// quality the run reports. For a closed loop over a non-cycling sequence
// that is every prepared plan, so the figure does not depend on how far a
// run got.
func distinctItems(seq []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, i := range seq {
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}
