package main

import (
	"bytes"
	"testing"

	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestWorkloadsAreSeededAndKeepTheirShape(t *testing.T) {
	plats, avail := platform.All(), platform.DefaultAvailability()
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		again, err := buildWorkload(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.items) != len(again.items) || len(w.seq) != len(again.seq) {
			t.Fatalf("%s: the same seed gave different workloads", name)
		}
		for i := range w.items {
			if !bytes.Equal(w.items[i].body, again.items[i].body) {
				t.Fatalf("%s: item %d differs between two builds from one seed", name, i)
			}
		}
		if err := requireDistinct(w.items, plats, avail); err != nil {
			t.Errorf("%s: %v", name, err)
		}

		counts := map[int]int{}
		for _, i := range w.seq {
			counts[i]++
		}
		switch name {
		case "cold-plans":
			if len(counts) != coldPlans || len(w.seq) != coldPlans {
				t.Errorf("cold-plans: %d distinct of %d requests, want %d each sent once", len(counts), len(w.seq), coldPlans)
			}
		case "hot-repeat":
			warm := map[int]bool{}
			for _, i := range w.warm {
				warm[i] = true
			}
			for i := range counts {
				if !warm[i] {
					t.Errorf("hot-repeat requests item %d, which is not warmed", i)
				}
			}
		case "fleet-mix":
			first := map[int]int{}
			risky := 0
			for k, i := range w.seq {
				if _, seen := first[i]; !seen {
					first[i] = k
					if w.items[i].lambda != 0 {
						risky++
					}
				} else if k-first[i] > 2*fleetWindow {
					t.Errorf("fleet-mix repeats item %d %d requests after its first arrival", i, k-first[i])
				}
			}
			for i, c := range counts {
				if c != fleetRepeats {
					t.Errorf("fleet-mix sends item %d %d times, want %d", i, c, fleetRepeats)
				}
			}
			if risky != fleetPlans/fleetRiskEvery {
				t.Errorf("fleet-mix has %d risk-aware plans, want %d", risky, fleetPlans/fleetRiskEvery)
			}
		}
	}
	if _, err := buildWorkload("no-such-workload", 1); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

func TestRequireDistinctRejectsSharedCacheKeys(t *testing.T) {
	plats, avail := platform.All(), platform.DefaultAvailability()
	it, err := newItem(workload.WordCount(1e9), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := requireDistinct([]item{it, it}, plats, avail); err == nil {
		t.Error("two identical plans passed the distinctness guard")
	}
	risky := it
	risky.lambda = riskLambda
	if err := requireDistinct([]item{it, risky}, plats, avail); err != nil {
		t.Errorf("one plan at two risk weights has two cache keys, but: %v", err)
	}
}

func TestReferenceMatches(t *testing.T) {
	ref := reference{
		assign: []string{"Spark", "Spark", "Java"},
		conv:   []service.ConversionJSON{{Name: "Spark→Java", AfterOp: 1, BeforeOp: 2, Tuples: 10}},
	}
	if !ref.matches([]string{"Spark", "Spark", "Java"}, ref.conv) {
		t.Error("the reference plan does not match itself")
	}
	if ref.matches([]string{"Spark", "Java", "Java"}, ref.conv) {
		t.Error("a different assignment matched")
	}
	other := []service.ConversionJSON{{Name: "Spark→Java", AfterOp: 1, BeforeOp: 2, Tuples: 11}}
	if ref.matches(ref.assign, other) {
		t.Error("a conversion with other tuples matched")
	}
	if ref.matches(ref.assign, nil) {
		t.Error("a plan without conversions matched")
	}
}
