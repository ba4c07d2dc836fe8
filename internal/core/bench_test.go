package core

// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
// the packed-uint64 pruning footprint vs the string fallback, and the
// unrolled vector kernels vs a naive loop, plus the merge and prune hot
// paths themselves.

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
	"repro/internal/workload"
)

func benchContext(b *testing.B, nOps, nPlats int) *Context {
	b.Helper()
	pb := plan.NewBuilder(100)
	cur := pb.Source(platform.TextFileSource, "src", 1e7)
	for i := 0; i < nOps-2; i++ {
		cur = pb.Add(platform.Map, "m", platform.Linear, 0.9, cur)
	}
	pb.Add(platform.CollectionSink, "sink", platform.Logarithmic, 1, cur)
	l, err := pb.Build()
	if err != nil {
		b.Fatal(err)
	}
	ctx, err := NewContext(l, platform.Subset(nPlats), platform.UniformAvailability(nPlats))
	if err != nil {
		b.Fatal(err)
	}
	return ctx
}

// BenchmarkAblationFootprint compares the packed-uint64 footprint key with
// the string fallback on identical assignments.
func BenchmarkAblationFootprint(b *testing.B) {
	assign := make([]uint8, 64)
	for i := range assign {
		assign[i] = uint8(i % 5)
	}
	narrow := make([]plan.OpID, 12)
	for i := range narrow {
		narrow[i] = plan.OpID(i * 3)
	}
	wide := make([]plan.OpID, 24)
	for i := range wide {
		wide[i] = plan.OpID(i * 2)
	}
	b.Run("PackedUint64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, packed := footprintKey(assign, narrow); !packed {
				b.Fatal("expected packed key")
			}
		}
	})
	b.Run("StringFallback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, packed := footprintKey(assign, wide); packed {
				b.Fatal("expected string key")
			}
		}
	})
}

// BenchmarkAblationVecops compares the unrolled add kernel against a naive
// loop at plan-vector width.
func BenchmarkAblationVecops(b *testing.B) {
	s := MustSchema(platform.All())
	x := make([]float64, s.Len())
	y := make([]float64, s.Len())
	dst := make([]float64, s.Len())
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i) * 2
	}
	b.Run("Unrolled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vecops.Add(dst, x, y)
		}
	})
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vecops.AddNaive(dst, x, y)
		}
	})
}

// BenchmarkMerge measures the plan-vector merge operation — the inner loop
// of the entire enumeration.
func BenchmarkMerge(b *testing.B) {
	ctx := benchContext(b, 20, 5)
	a := ctx.enumerateSingleton(3, nil)
	c := ctx.enumerateSingleton(4, nil)
	info := ctx.MergeInfo(a, c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Merge(a.Vectors[0], c.Vectors[0], info, nil)
	}
}

// BenchmarkVectorizeSubplan measures the per-call plan-to-vector
// transformation the Rheem-ML baseline pays on every model invocation.
func BenchmarkVectorizeSubplan(b *testing.B) {
	ctx := benchContext(b, 20, 5)
	assign := map[plan.OpID]uint8{}
	for i := 0; i < 10; i++ {
		assign[plan.OpID(i)] = uint8(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.VectorizeSubplan(assign)
	}
}

// BenchmarkPrune measures boundary pruning over a realistic enumeration.
func BenchmarkPrune(b *testing.B) {
	ctx := benchContext(b, 8, 3)
	model := weightModel{}
	e, err := ctx.Enumerate(context.Background(), ctx.Vectorize(), 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	orig := make([]*Vector, len(e.Vectors))
	copy(orig, e.Vectors)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Vectors = append(e.Vectors[:0], orig...)
		for _, v := range orig {
			v.scored = false // measure inference, not already-scored vectors
		}
		BoundaryPruner{Model: model}.Prune(context.Background(), ctx, e, nil)
	}
}

// BenchmarkAblationBatch compares one merge+prune step of the enumeration on
// the pre-batching scalar path (per-pair allocating Merge, one model call
// per vector) against the batch path the enumeration runs (a lazy
// concatenation whose feature rows are merged block by block for
// PredictBatch, then only the survivors materialized) at the scale of
// Figure 9a's 40-operator pipeline.
func BenchmarkAblationBatch(b *testing.B) {
	ctx := benchContext(b, 40, 2)
	model := weightModel{}
	// Pre-build the step's inputs: an 11-operator prefix enumeration
	// (2^11 vectors) about to be merged with the next singleton —
	// 4096 merge pairs scored by one prune.
	left := ctx.enumerateSingleton(0, nil)
	for id := 1; id < 11; id++ {
		next := ctx.enumerateSingleton(plan.OpID(id), nil)
		pairs := Iterate(left, next)
		info := ctx.MergeInfo(left, next)
		merged := ctx.arenaEnum(left.Scope.Union(next.Scope), len(pairs))
		for i, pr := range pairs {
			ctx.mergeInto(merged.Vectors[i], pr[0], pr[1], info)
		}
		merged.Boundary = ctx.boundaryOf(merged.Scope)
		left = merged
	}
	right := ctx.enumerateSingleton(plan.OpID(11), nil)
	pairs := Iterate(left, right)
	info := ctx.MergeInfo(left, right)
	scope := left.Scope.Union(right.Scope)
	boundary := ctx.boundaryOf(scope)
	bg := context.Background()
	// The enumeration concatenates sparse vectors (see Vector).
	sparse := func(e *Enumeration) *Enumeration {
		sp := &Enumeration{Scope: e.Scope, Boundary: e.Boundary, Vectors: append([]*Vector(nil), e.Vectors...)}
		ctx.materialize(sp, 1)
		return sp
	}
	sleft, sright := sparse(left), sparse(right)

	b.Run("ScalarPredict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged := &Enumeration{Scope: scope, Boundary: boundary,
				Vectors: make([]*Vector, 0, len(pairs))}
			for _, pr := range pairs {
				merged.Vectors = append(merged.Vectors, ctx.Merge(pr[0], pr[1], info, nil))
			}
			for _, v := range merged.Vectors {
				v.Cost = model.Predict(v.F)
			}
			dedupFootprint(merged, nil, nil)
		}
	})
	b.Run("PredictBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			merged, err := ctx.concat(bg, sleft, sright, 1)
			if err != nil {
				b.Fatal(err)
			}
			BoundaryPruner{Model: model}.Prune(bg, ctx, merged, nil)
			ctx.materialize(merged, 1)
		}
	})
}

// BenchmarkParallelEnumeration compares the serial and parallel enumeration
// paths on a large pipeline — the parallelism opportunity the paper's
// algebraic operations are designed to expose.
func BenchmarkParallelEnumeration(b *testing.B) {
	for _, workers := range []int{1, 8} {
		ctx := benchContext(b, 60, 5)
		ctx.Workers = workers
		m := weightModel{}
		name := "serial"
		if workers > 1 {
			name = "workers=8"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := ctx.Optimize(context.Background(), m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelEnumerate measures the full optimization with the worker
// pool sized to GOMAXPROCS, so one `go test -cpu 1,2,4,8` run sweeps the
// scaling curve (CI's -cpu matrix leg does exactly that; BENCH_parallel.json
// records a snapshot). Two shapes at Figure 9a's 40-operator scale: a
// pipeline, whose rounds fan many independent boundary tasks across the
// pool, and a multi-branch DAG, where the boundary-tie guard serializes the
// hole-closing join merges and stresses work stealing instead.
func BenchmarkParallelEnumerate(b *testing.B) {
	m := weightModel{}
	b.Run("pipeline40x2", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		ctx.Workers = runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dag40x3", func(b *testing.B) {
		l := workload.RandomDAG(40, 1e7, 4)
		ctx, err := NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			b.Fatal(err)
		}
		ctx.Workers = runtime.GOMAXPROCS(0)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRiskPrune measures the overhead of distributional scoring at
// Figure 9a's 40-operator scale: the same pipeline optimized on the
// point-estimate path (zero Risk — the historical code path, byte for byte)
// and on the risk-aware path (λ=0.5 with overlap pruning, four batched
// output columns plus interval bookkeeping per prune). BENCH_risk.json
// records a snapshot of the two.
func BenchmarkRiskPrune(b *testing.B) {
	m := distWeightModel{}
	b.Run("PointScoring", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DistScoring", func(b *testing.B) {
		ctx := benchContext(b, 40, 2)
		ctx.Risk = Risk{Lambda: 0.5, KeepOverlap: true}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Optimize(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

type weightModel struct{}

func (weightModel) Predict(f []float64) float64 {
	s := 0.0
	for i, v := range f {
		s += v * float64(i%7)
	}
	return s
}

// PredictBatch scores each row with the same arithmetic as Predict, making
// weightModel a native BatchCostModel for the benchmarks above.
func (m weightModel) PredictBatch(X *vecops.Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = m.Predict(X.Row(i))
	}
}

// distWeightModel extends weightModel with a cheap synthetic uncertainty so
// BenchmarkRiskPrune exercises the full four-column distributional path.
type distWeightModel struct{ weightModel }

func (m distWeightModel) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	m.PredictBatch(X, mean)
	for i := 0; i < X.Rows; i++ {
		s := 0.01 * mean[i]
		if s < 0 {
			s = -s
		}
		spread[i] = s
		lo[i] = mean[i] - 1.645*s
		hi[i] = mean[i] + 1.645*s
	}
}
