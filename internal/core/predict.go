package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/vecops"
)

// ModelProvider resolves the cost model for one optimization run. It is the
// indirection behind hot-swappable serving: callers read the active model
// once per run instead of holding a model for their lifetime, so a model
// registry can atomically publish a retrained model between runs without
// synchronizing with in-flight enumerations. Implementations must be safe
// for concurrent ActiveModel calls.
type ModelProvider interface {
	ActiveModel() CostModel
}

// OptimizeProvider is Optimize with the model resolved from mp when the run
// starts: the returned plan is scored entirely by that one model snapshot,
// even if the provider hot-swaps mid-run.
func (c *Context) OptimizeProvider(ctx context.Context, mp ModelProvider) (*Result, error) {
	return c.Optimize(ctx, mp.ActiveModel())
}

// BatchCostModel is a CostModel that can predict a whole feature matrix in
// one call, filling out[i] for row i. mlmodel.BatchModel satisfies it
// structurally (mlmodel.Matrix is an alias of vecops.Matrix), keeping core
// free of an mlmodel dependency. Implementations must be safe for
// concurrent PredictBatch calls: the enumeration scores blocks of one
// enumeration on several workers.
type BatchCostModel interface {
	CostModel
	PredictBatch(X *vecops.Matrix, out []float64)
}

// asBatch returns m as a BatchCostModel, wrapping scalar models with a
// per-row loop so third-party CostModels keep working unchanged.
func asBatch(m CostModel) BatchCostModel {
	if bm, ok := m.(BatchCostModel); ok {
		return bm
	}
	return scalarBatch{m}
}

type scalarBatch struct{ CostModel }

func (b scalarBatch) PredictBatch(X *vecops.Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = b.Predict(X.Row(i))
	}
}

// scoreBlock is one worker's scratch for scoring pruneBlock vectors: their
// feature rows and the model's four output columns. The rows keep
// vecops.RowSpan cells of capacity past every row's start, so the compiled
// tree walk reads them in place.
type scoreBlock struct {
	X                    vecops.Matrix
	mean, spread, lo, hi [pruneBlock]float64
}

// scoreBlocks recycles scoring blocks across calls and runs. Every block
// has the same fixed size, so the pool holds at most one block per
// goroutine that scores concurrently, whatever the size of the
// enumerations being scored.
var scoreBlocks = sync.Pool{New: func() any { return new(scoreBlock) }}

// getScoreBlock returns a block with room for pruneBlock rows of cols cells.
func getScoreBlock(cols int) *scoreBlock {
	b := scoreBlocks.Get().(*scoreBlock)
	n := pruneBlock * cols
	if cap(b.X.Data) < n+vecops.RowSpan {
		// Schemas differ in width: a block from a narrower one is
		// replaced.
		b.X.Data = make([]float64, n, n+vecops.RowSpan)
	}
	b.X.Data = b.X.Data[:n]
	b.X.Cols = cols
	return b
}

// predictEnum sets Vector.Cost (and Vector.Dist) for every vector of e
// through one logical batched model invocation, and is the single
// prediction/accounting path shared by BoundaryPruner, PropertyPruner and
// GetOptimal. Vectors already scored in this run (the survivors GetOptimal
// sees after the final prune) keep their scores and count as
// Stats.MemoHits. The rest are scored in blocks of pruneBlock rows, spread
// over workers with parallelForCtx: each block's feature rows are written
// into a pooled block buffer — copied from materialized vectors, merged
// from lazy vectors' source pairs — just before the model scores it, so a
// concatenation is never built in full and cancellation latency stays
// bounded by one block of model work. On risk-enabled runs (Context.Risk)
// the blocks go through PredictBatchDist and Cost becomes the λ-adjusted
// score; otherwise through PredictBatch, with Cost the bit-identical mean.
// Stats.ModelBatches counts one batch per call that scores anything. Returns
// false when ctx was cancelled mid-batch; costs are then partial and the
// caller must abandon the enumeration.
func (c *Context) predictEnum(ctx context.Context, m CostModel, e *Enumeration, st *Stats) bool {
	n := len(e.Vectors)
	if n == 0 {
		return true
	}
	start := time.Now()
	var ispan *obs.Span
	if c.rt != nil {
		parent := c.curSpan
		if parent == nil {
			parent = c.root
		}
		ispan = c.Trace.StartSpan(parent, "infer")
	}
	hits := 0
	for _, v := range e.Vectors {
		if v.scored {
			hits++
		}
	}
	todo := e.Vectors
	if hits > 0 {
		todo = make([]*Vector, 0, n-hits)
		for _, v := range e.Vectors {
			if !v.scored {
				todo = append(todo, v)
			}
		}
	}
	ok := true
	if len(todo) > 0 {
		dist := c.Risk.enabled()
		var bm BatchCostModel
		var dm DistBatchCostModel
		if dist {
			dm = asBatchDist(m)
		} else {
			bm = asBatch(m)
		}
		cols := c.Schema.Len()
		err := parallelForCtx(ctx, len(todo), c.Workers, pruneBlock, func(lo, hi int) {
			b := getScoreBlock(cols)
			defer scoreBlocks.Put(b)
			for blo := lo; blo < hi; blo += pruneBlock {
				vs := todo[blo:min(blo+pruneBlock, hi)]
				k := len(vs)
				b.X.Rows = k
				for r, v := range vs {
					c.writeFeatures(b.X.Row(r), v)
				}
				if dist {
					dm.PredictBatchDist(&b.X, b.mean[:k], b.spread[:k], b.lo[:k], b.hi[:k])
				} else {
					// Point estimates: a degenerate interval at the mean.
					bm.PredictBatch(&b.X, b.mean[:k])
					for r := range vs {
						b.spread[r], b.lo[r], b.hi[r] = 0, b.mean[r], b.mean[r]
					}
				}
				for r, v := range vs {
					v.Dist = CostDist{Mean: b.mean[r], Spread: b.spread[r], Lo: b.lo[r], Hi: b.hi[r]}
					v.Cost = c.score(v.Dist)
					v.scored = true
				}
			}
		})
		ok = err == nil
	}
	if st != nil {
		st.Timings.Infer += time.Since(start)
		if ok {
			if len(todo) > 0 {
				st.ModelBatches++
				st.ModelRows += len(todo)
			}
			st.MemoHits += hits
		}
	}
	if ispan != nil {
		ispan.SetInt("rows", int64(len(todo))).SetInt("memoHits", int64(hits))
		if !ok {
			ispan.SetBool("cancelled", true)
		}
		ispan.End()
	}
	if ok {
		if rec := c.curRec; rec != nil {
			rec.ModelRows += len(todo)
			rec.MemoHits += hits
		}
	}
	return ok
}
