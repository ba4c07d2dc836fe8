package core_test

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/workload"
)

// TestQuickUnvectorizeRoundTrip: for random plans and assignments, the
// execution plan reconstructed from a vector carries exactly the platforms
// the vector assigned, and its conversions sit exactly on switch edges.
func TestQuickUnvectorizeRoundTrip(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw)%12 + 3
		l := workload.RandomDAG(size, 1e7, seed)
		ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 1))
		assign := make([]uint8, l.NumOps())
		for i := range assign {
			alts := ctx.Alternatives(plan.OpID(i))
			assign[i] = alts[rng.Intn(len(alts))]
		}
		v := ctx.VectorizeExecution(assign)
		x, err := ctx.Unvectorize(v)
		if err != nil {
			return false
		}
		for i, a := range assign {
			if x.Assign[i] != ctx.Schema.Platform(int(a)) {
				return false
			}
		}
		switches := 0
		for _, e := range l.Edges() {
			if assign[e.From] != assign[e.To] {
				switches++
			}
		}
		return switches == len(x.Conversions) && switches == ctx.Schema.Conversions(v.F)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickVectorNonNegative: every feature cell of a concrete plan vector
// is nonnegative (abstract vectors may hold -1 alternatives; concrete ones
// never do).
func TestQuickVectorNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		l := workload.RandomDAG(10, 1e6, seed)
		ctx, err := core.NewContext(l, platform.Subset(2), platform.UniformAvailability(2))
		if err != nil {
			return false
		}
		// RandomDAG sizes are approximate; no cap — 2 platforms keep
		// the exhaustive enumeration small enough.
		e, err := ctx.Enumerate(context.Background(), ctx.Vectorize(), 0, nil)
		if err != nil {
			return false
		}
		for _, v := range e.Vectors {
			for _, cell := range v.F {
				if cell < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPruneSubset: pruning returns a subset of the enumeration with
// unchanged scope, and the surviving minimum cost equals the pre-prune
// minimum (the footprint group containing the argmin keeps its best).
func TestQuickPruneSubset(t *testing.T) {
	f := func(seed int64) bool {
		l := workload.Pipeline(int(uint(seed)%5)+4, 1e7)
		ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			return false
		}
		e, err := ctx.Enumerate(context.Background(), ctx.Vectorize(), 0, nil)
		if err != nil {
			return false
		}
		m := newAdditiveLinModel(ctx.Schema, seed)
		before := e.Size()
		minBefore := 0.0
		for i, v := range e.Vectors {
			c := m.Predict(v.F)
			if i == 0 || c < minBefore {
				minBefore = c
			}
		}
		core.BoundaryPruner{Model: m}.Prune(context.Background(), ctx, e, nil)
		if e.Size() > before {
			return false
		}
		minAfter := 0.0
		for i, v := range e.Vectors {
			if i == 0 || v.Cost < minAfter {
				minAfter = v.Cost
			}
		}
		return minAfter == minBefore
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickWorkersDeterministic: for random DAGs, the parallel enumeration
// is an exact replica of the serial one — Workers=1 and Workers=8 produce
// byte-identical platform assignments and do the same amount of merge work.
// This is the determinism contract the chunked parallel writes exist for.
func TestQuickWorkersDeterministic(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw)%10 + 4
		l := workload.RandomDAG(size, 1e8, seed)
		run := func(workers int) (*core.Result, bool) {
			ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
			if err != nil {
				return nil, false
			}
			ctx.Workers = workers
			m := newAdditiveLinModel(ctx.Schema, seed+13)
			res, err := ctx.Optimize(context.Background(), m)
			if err != nil {
				return nil, false
			}
			return res, true
		}
		serial, ok := run(1)
		if !ok {
			return false
		}
		par, ok := run(8)
		if !ok {
			return false
		}
		if len(serial.Execution.Assign) != len(par.Execution.Assign) {
			return false
		}
		for i := range serial.Execution.Assign {
			if serial.Execution.Assign[i] != par.Execution.Assign[i] {
				return false
			}
		}
		return serial.Stats.Merges == par.Stats.Merges &&
			serial.Stats.Counters() == par.Stats.Counters()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickSwitchesMatchConversions: the switch count pruners read from an
// assignment (Context.Switches) equals the conversion count encoded in the
// features (Schema.Conversions) on singleton vectors, on merged vectors over
// random partial scopes (where edges leaving the scope must not count), on
// the survivors of a lazily built enumeration, and on VectorizeExecution
// vectors.
func TestQuickSwitchesMatchConversions(t *testing.T) {
	f := func(seed int64, sizeRaw uint8) bool {
		size := int(sizeRaw)%8 + 3
		l := workload.RandomDAG(size, 1e7, seed)
		ctx, err := core.NewContext(l, platform.Subset(3), platform.UniformAvailability(3))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed + 2))
		var vecs []*core.Vector
		for _, single := range ctx.Split(ctx.Vectorize()) {
			e, err := ctx.Enumerate(context.Background(), single, 0, nil)
			if err != nil {
				return false
			}
			vecs = append(vecs, e.Vectors...)
		}
		// A random scope of up to six operators: at most 3^6 vectors.
		scope := plan.NewBitset(l.NumOps())
		for _, id := range rng.Perm(l.NumOps())[:1+rng.Intn(min(6, l.NumOps()))] {
			scope.Set(plan.OpID(id))
		}
		e, err := ctx.Enumerate(context.Background(), &core.Abstract{Scope: scope}, 0, nil)
		if err != nil {
			t.Logf("Enumerate: %v", err)
			return false
		}
		vecs = append(vecs, e.Vectors...)
		final, err := ctx.EnumerateFull(context.Background(), core.SwitchPruner{Beta: 2, MaxVectors: 16}, core.OrderPriority, nil)
		if err != nil {
			t.Logf("EnumerateFull: %v", err)
			return false
		}
		vecs = append(vecs, final.Vectors...)
		for k := 0; k < 8; k++ {
			assign := make([]uint8, l.NumOps())
			for i := range assign {
				alts := ctx.Alternatives(plan.OpID(i))
				assign[i] = alts[rng.Intn(len(alts))]
			}
			vecs = append(vecs, ctx.VectorizeExecution(assign))
		}
		for _, v := range vecs {
			if sw, conv := ctx.Switches(v.Assign), ctx.Schema.Conversions(v.F); sw != conv {
				t.Logf("%v: Switches %d, Conversions %d", v, sw, conv)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
