package core_test

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mlmodel"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// quickEnsemble caches the model of BenchmarkOptimizeMiss: fitting it takes
// seconds.
var quickEnsemble struct {
	once sync.Once
	m    mlmodel.Model
	err  error
}

// fitQuickEnsemble fits a model of the shape roboptd -quick serves — a
// 2-member ensemble of log-target GBMs, 150 trees of depth 5 — on plan
// vectors of random execution plans over plats, labelled by a synthetic
// runtime: per-platform load and startup plus a price per conversion.
func fitQuickEnsemble(plats []platform.ID, avail *platform.Availability) (mlmodel.Model, error) {
	var e mlmodel.Ensemble
	for member := int64(0); member < 2; member++ {
		rng := rand.New(rand.NewSource(31 + member))
		ds := &mlmodel.Dataset{}
		for p := 0; p < 60; p++ {
			l := workload.RandomDAG(5+rng.Intn(36), 1e7*float64(1+rng.Intn(1000)), rng.Int63())
			ctx, err := core.NewContext(l, plats, avail)
			if err != nil {
				return nil, err
			}
			s := ctx.Schema
			for k := 0; k < 25; k++ {
				assign := make([]uint8, l.NumOps())
				for i := range assign {
					alts := ctx.Alternatives(plan.OpID(i))
					assign[i] = alts[rng.Intn(len(alts))]
				}
				v := ctx.VectorizeExecution(assign)
				y := 1e-9 * v.F[s.MoveInCardCell()]
				for pi := 0; pi < s.NumPlatforms(); pi++ {
					if v.F[s.PlatOpsCell(pi)] > 0 {
						y += float64(pi) * 2
					}
					y += 1e-8 * float64(1+pi%3) * v.F[s.LoadCell(pi)]
				}
				ds.Append(v.F, y)
			}
		}
		tr := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{
			Trees: 150, MaxDepth: 5, LR: 0.1, MinLeaf: 5, Seed: 7 + member, Parallel: true,
		}}}
		m, err := tr.Fit(ds)
		if err != nil {
			return nil, err
		}
		e.Models = append(e.Models, m)
	}
	return e, nil
}

// BenchmarkOptimizeMiss measures one plan-cache miss as roboptd serves it:
// a 30-operator random DAG over all five platforms, optimized from a fresh
// Context and scored by a fitted quick GBM ensemble (fitQuickEnsemble). It
// reports B/op and allocs/op, the memory one enumeration costs.
func BenchmarkOptimizeMiss(b *testing.B) {
	plats, avail := platform.All(), platform.DefaultAvailability()
	quickEnsemble.once.Do(func() { quickEnsemble.m, quickEnsemble.err = fitQuickEnsemble(plats, avail) })
	if quickEnsemble.err != nil {
		b.Fatal(quickEnsemble.err)
	}
	l := workload.RandomDAG(30, 1e10, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, err := core.NewContext(l, plats, avail)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctx.Optimize(context.Background(), quickEnsemble.m); err != nil {
			b.Fatal(err)
		}
	}
}
