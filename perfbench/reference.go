package main

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/simulator"
)

// reference is an item's expected answer, computed in process through the
// library path before timing: the platform per operator, the conversion
// operators, the simulated runtime of that plan, and the simulated runtime
// of the best plan that runs every operator on one platform.
type reference struct {
	assign    []string
	conv      []service.ConversionJSON
	simSec    float64
	singleSec float64
}

// matches reports whether a response carries exactly the reference plan.
func (r *reference) matches(assign []string, conv []service.ConversionJSON) bool {
	if len(assign) != len(r.assign) || len(conv) != len(r.conv) {
		return false
	}
	for i := range assign {
		if assign[i] != r.assign[i] {
			return false
		}
	}
	for i := range conv {
		if conv[i] != r.conv[i] {
			return false
		}
	}
	return true
}

// computeReferences fills every item's reference with
// robopt.NewOptimizerWithModel(...).Optimize (no cache) on the served
// model, one item per CPU at a time. A plan that fails in the simulator
// (out of memory or aborted) counts at the simulator's abort time.
func computeReferences(items []item, m mlmodel.Model, plats []platform.ID, avail *platform.Availability) error {
	cluster := simulator.Default()
	var next atomic.Int64
	return forEach(runtime.GOMAXPROCS(0), func(int) error {
		for {
			i := int(next.Add(1) - 1)
			if i >= len(items) {
				return nil
			}
			opt := robopt.NewOptimizerWithModel(m, plats, avail)
			opt.RiskLambda = items[i].lambda
			res, err := opt.Optimize(items[i].plan)
			if err != nil {
				return fmt.Errorf("reference for item %d: %w", i, err)
			}
			if res.Degraded {
				return fmt.Errorf("reference for item %d is degraded", i)
			}
			ref := reference{simSec: simulate(cluster, res.Execution), singleSec: math.Inf(1)}
			for _, p := range plats {
				assign := make([]platform.ID, items[i].plan.NumOps())
				for k := range assign {
					assign[k] = p
				}
				if x, err := plan.NewExecution(items[i].plan, assign); err == nil && x.Validate(avail) == nil {
					ref.singleSec = math.Min(ref.singleSec, simulate(cluster, x))
				}
			}
			if math.IsInf(ref.singleSec, 0) {
				return fmt.Errorf("item %d: no single platform runs every operator", i)
			}
			for _, p := range res.Execution.Assign {
				ref.assign = append(ref.assign, p.String())
			}
			for _, c := range res.Execution.Conversions {
				ref.conv = append(ref.conv, service.ConversionJSON{
					Name: c.Name(), AfterOp: int(c.AfterOp), BeforeOp: int(c.BeforeOp), Tuples: c.Card,
				})
			}
			items[i].ref = ref
		}
	})
}

// simulate returns a plan's simulated runtime, counting a failed run (out
// of memory or aborted) at the simulator's abort time.
func simulate(cluster *simulator.Cluster, x *plan.Execution) float64 {
	rt := cluster.Run(x).Runtime
	if rt > cluster.Timeout || math.IsInf(rt, 0) {
		return cluster.Timeout
	}
	return rt
}
