package main

import (
	"fmt"
	"math/rand"
	"sort"
)

// Workload sizes. They are fixed so that every run of a workload, on any
// commit, offers the same traffic for a given seed.
const (
	// coldPlans is how many distinct plans cold-plans prepares. It leaves
	// about 1.5x headroom over what two connections get through in a
	// 15-second run on a 2-vCPU machine; a run that uses them all up ends
	// early and says so.
	coldPlans = 1800
	// hotPlans is the working set of hot-repeat, and hotSequence the length
	// of its seeded request order, which the closed loop cycles through.
	hotPlans    = 96
	hotSequence = 4096
	// fleetPlans is how many distinct plans fleet-mix prepares; each is
	// requested fleetRepeats times, all within about fleetWindow requests of its
	// first arrival, and one in fleetRiskEvery is risk-aware
	// (risk_lambda > 0). Like coldPlans, the sequence leaves headroom over
	// what a 15-second run gets through on a 2-vCPU machine.
	fleetPlans     = 3600
	fleetRepeats   = 4
	fleetRiskEvery = 4
	fleetWindow    = 60
	// fleetMaxOps caps fleet-mix plans below cold-plans' 40 operators: the
	// workload is about the shared cache tier and the risk path, and small
	// misses give it several thousand requests a run, enough for steady
	// latency percentiles.
	fleetMaxOps = 12
	// warmPlans are sent before timing on cold-plans and fleet-mix, so
	// connections and first-request allocations are not timed. They are
	// extra plans, never requested again.
	warmPlans = 8
)

// spec is how a workload drives the replicas.
type spec struct {
	replicas int
	shared   bool // replicas share one -model-dir with -peer-fill
	conns    int  // client connections, spread over the replicas
	allHits  bool // every timed response must be an X-Cache hit
}

// plannedWorkload is a workload's traffic, generated from the seed.
type plannedWorkload struct {
	name string
	spec
	items []item
	warm  []int // item indices sent before timing
	seq   []int // item indices of the timed phase, in order
	cycle bool  // the closed loop may wrap around seq
}

var workloadNames = []string{"cold-plans", "hot-repeat", "fleet-mix"}

// buildWorkload generates a workload's items and request order.
func buildWorkload(name string, seed int64) (*plannedWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	var plans *planStream
	w := &plannedWorkload{name: name}
	add := func(n int, lambda func(j int) float64) ([]int, error) {
		var idx []int
		for j := 0; j < n; j++ {
			it, err := newItem(plans.plan(), lambda(j))
			if err != nil {
				return nil, err
			}
			idx = append(idx, len(w.items))
			w.items = append(w.items, it)
		}
		return idx, nil
	}
	pointEstimate := func(int) float64 { return 0 }
	var err error
	switch name {
	case "cold-plans":
		// Every request a plan the server has never seen: the miss path.
		w.spec = spec{replicas: 1, conns: 2}
		plans = newPlanStream(rng, 40)
		if w.warm, err = add(warmPlans, pointEstimate); err != nil {
			return nil, err
		}
		w.seq, err = add(coldPlans, pointEstimate)
	case "hot-repeat":
		// A small working set, warmed before timing: the hit path.
		w.spec = spec{replicas: 1, conns: 2, allHits: true}
		plans = newPlanStream(rng, 40)
		if w.warm, err = add(hotPlans, pointEstimate); err != nil {
			return nil, err
		}
		w.cycle = true
		for k := 0; k < hotSequence; k++ {
			w.seq = append(w.seq, w.warm[rng.Intn(len(w.warm))])
		}
	case "fleet-mix":
		// Two peer-fill replicas, one connection to each. Each plan recurs,
		// so its first arrival is cold and later ones are local hits, peer
		// fills or fleet-singleflight waits; some plans are risk-aware.
		w.spec = spec{replicas: 2, shared: true, conns: 2}
		plans = newPlanStream(rng, fleetMaxOps)
		if w.warm, err = add(warmPlans, pointEstimate); err != nil {
			return nil, err
		}
		var timedPlans []int
		timedPlans, err = add(fleetPlans, func(j int) float64 {
			// By block of four, so risk-aware plans span all families.
			if (j/4)%fleetRiskEvery == fleetRiskEvery-1 {
				return riskLambda
			}
			return 0
		})
		// New plans arrive at a steady pace, one per fleetRepeats requests,
		// and each recurs within the next fleetWindow requests. That keeps
		// the share of cold arrivals the same through the run, where a plain
		// shuffle would front-load them.
		type arrival struct {
			at   float64
			item int
		}
		var arrivals []arrival
		for j, i := range timedPlans {
			first := float64(j*fleetRepeats) + rng.Float64()*fleetRepeats
			arrivals = append(arrivals, arrival{first, i})
			for r := 1; r < fleetRepeats; r++ {
				arrivals = append(arrivals, arrival{first + 1 + rng.Float64()*fleetWindow, i})
			}
		}
		sort.Slice(arrivals, func(a, b int) bool { return arrivals[a].at < arrivals[b].at })
		for _, a := range arrivals {
			w.seq = append(w.seq, a.item)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	return w, nil
}
