package main

import (
	"sort"
	"time"
)

// windowLen is the length of the slices the timed phase is cut into. The
// end-to-end figures are interquartile means over the calm slices (see
// calmWindows), so a stall or a burst of host contention that covers less
// than a quarter of them moves the figures little.
const windowLen = time.Second

// maxCalmSteal is the share of the machine's CPU time the hypervisor may
// give to other guests during a window that still counts as calm.
const maxCalmSteal = 0.05

// window is one slice of the timed phase, between two readings of the
// replicas' CPU time.
type window struct {
	from, to time.Duration // since the start of the phase
	cpu      time.Duration // the replicas' CPU time over [from, to)
	steal    float64       // the host's steal share over [from, to)
}

// calmWindows returns, in order, the windows whose steal share is at most
// maxCalmSteal or, when fewer than half of them are, the half with the
// least steal. Time the hypervisor gives to other guests slows every
// request of a window alike, so it measures the host, not the program.
func calmWindows(ws []window) []window {
	if len(ws) == 0 {
		return nil
	}
	shares := make([]float64, len(ws))
	for i, w := range ws {
		shares[i] = w.steal
	}
	sort.Float64s(shares)
	limit := max(maxCalmSteal, shares[(len(ws)+1)/2-1])
	var calm []window
	for _, w := range ws {
		if w.steal <= limit {
			calm = append(calm, w)
		}
	}
	return calm
}

// windowFigures holds one value per window of each windowed figure.
// Windows without a successful request have no latency or CPU share.
type windowFigures struct {
	rps       []float64 // successes per second
	p50, p90  []float64 // latency percentiles, ms
	cpuPerReq []float64 // replica CPU ms per success
}

// windowed computes the figures of each window from the successful samples
// that completed in it.
func windowed(samples []sample, ws []window) windowFigures {
	lat := make([][]float64, len(ws))
	for _, s := range samples {
		if s.failure != "" {
			continue
		}
		for j := range ws {
			if s.end >= ws[j].from && s.end < ws[j].to {
				lat[j] = append(lat[j], ms(s.latency))
				break
			}
		}
	}
	var out windowFigures
	for j, w := range ws {
		n := len(lat[j])
		out.rps = append(out.rps, float64(n)/(w.to-w.from).Seconds())
		if n == 0 {
			continue
		}
		out.p50 = append(out.p50, percentile(lat[j], 50))
		out.p90 = append(out.p90, percentile(lat[j], 90))
		out.cpuPerReq = append(out.cpuPerReq, ms(w.cpu)/float64(n))
	}
	return out
}
