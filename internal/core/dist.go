package core

import (
	"sort"

	"repro/internal/vecops"
)

// This file is the uncertainty-aware half of the prediction contract. The
// enumeration historically scored plan vectors by a scalar point estimate;
// models that expose their predictive distribution (mlmodel.BatchDistModel
// satisfies DistBatchCostModel structurally) let the optimizer carry a
// CostDist per vector instead: pruning can keep near-ties whose intervals
// overlap the group winner's, and final selection can score by
// mean + λ·spread. The default Risk zero value disables all of it and the
// enumeration runs the historical point-estimate code path byte for byte —
// the λ=0 parity and determinism suites pin that equivalence.

// CostDist summarizes the model's predictive distribution for one plan
// vector: the mean point estimate (bit-identical to the scalar prediction
// path), a nonnegative spread (one standard deviation of the model's
// uncertainty proxy), and a central interval [Lo, Hi] containing the mean.
type CostDist struct {
	Mean   float64 `json:"mean"`
	Spread float64 `json:"spread"`
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
}

// Overlaps reports whether the two predictive intervals intersect.
func (d CostDist) Overlaps(o CostDist) bool { return d.Lo <= o.Hi && o.Lo <= d.Hi }

// Risk configures uncertainty-aware scoring and pruning for one optimization
// run. The zero value is exactly the historical point-estimate optimizer.
type Risk struct {
	// Lambda is the risk-aversion weight: vectors are scored (for pruning,
	// degraded-mode truncation and final selection alike) by
	// mean + Lambda·spread. 0 scores by the mean alone, bit-identical to
	// the point-estimate path.
	Lambda float64
	// KeepOverlap switches boundary pruning from keep-one-per-footprint to
	// keep-near-ties: vectors whose predictive interval overlaps their
	// group winner's survive (up to MaxKept per group), so a plan the
	// model cannot confidently separate from the winner stays in play
	// until more of the plan is merged in and the intervals sharpen.
	KeepOverlap bool
	// MaxKept caps the survivors per pruning group when KeepOverlap is
	// set. 0 means the default of 4.
	MaxKept int
}

// enabled reports whether the run needs distributional predictions at all.
func (r Risk) enabled() bool { return r.Lambda != 0 || r.KeepOverlap }

// maxKept returns the per-group survivor cap.
func (r Risk) maxKept() int {
	if r.MaxKept > 0 {
		return r.MaxKept
	}
	return 4
}

// score collapses a predictive distribution to the run's selection score.
// The λ=0 path must return the mean bit-for-bit (never compute mean + 0·s:
// a negative-zero spread contribution would flip the sign bit of -0 means).
func (c *Context) score(d CostDist) float64 {
	s := d.Mean
	if c.Risk.Lambda != 0 {
		s += c.Risk.Lambda * d.Spread
	}
	return s
}

// DistBatchCostModel is a CostModel that predicts a whole feature matrix
// with per-row uncertainty, filling the four parallel output slices.
// mlmodel.BatchDistModel satisfies it structurally (mlmodel.Matrix aliases
// vecops.Matrix), keeping core free of an mlmodel dependency. mean[i] must
// be bit-identical to the point path's prediction for row i; implementations
// must be safe for concurrent calls.
type DistBatchCostModel interface {
	CostModel
	PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64)
}

// asBatchDist returns m as a DistBatchCostModel, degrading point-only models
// to a zero-spread distribution (lo = hi = mean) so risk-aware runs work —
// without uncertainty information — against any CostModel.
func asBatchDist(m CostModel) DistBatchCostModel {
	if dm, ok := m.(DistBatchCostModel); ok {
		return dm
	}
	return pointBatchDist{asBatch(m)}
}

type pointBatchDist struct{ BatchCostModel }

func (p pointBatchDist) PredictBatchDist(X *vecops.Matrix, mean, spread, lo, hi []float64) {
	p.PredictBatch(X, mean)
	for i := 0; i < X.Rows; i++ {
		spread[i] = 0
		lo[i] = mean[i]
		hi[i] = mean[i]
	}
}

// predictDistOne scores a single feature row distributionally — the post-hoc
// path that surfaces the winning plan's interval on point-estimate (λ=0)
// runs without touching the enumeration's counters or scores.
func predictDistOne(m CostModel, f []float64) CostDist {
	dm := asBatchDist(m)
	X := vecops.Matrix{Data: f, Rows: 1, Cols: len(f)}
	var mean, spread, lo, hi [1]float64
	dm.PredictBatchDist(&X, mean[:], spread[:], lo[:], hi[:])
	return CostDist{Mean: mean[0], Spread: spread[0], Lo: lo[0], Hi: hi[0]}
}

// riskDedup is the KeepOverlap variant of boundary pruning, shared by
// BoundaryPruner (props nil) and PropertyPruner: vectors group by pruning
// footprint (refined by the property keys), the group winner is the vector
// with the lowest score (ties to the earliest, like dedupFootprint), and —
// unlike the point-estimate path — group members whose predictive interval
// overlaps the winner's survive too, cheapest first, up to Risk.MaxKept per
// group. Keeping extra survivors only ever widens the enumeration the
// lossless Lemma 1 argument reasons about, so the winner-per-footprint
// guarantee is untouched; the near-ties ride along as insurance against the
// model misordering plans it cannot confidently separate. Survivors appear
// in group first-seen order, winner first — deterministic for any Workers.
func riskDedup(c *Context, e *Enumeration, st *Stats, rec *PruneRecord, props []Property) {
	if len(e.Vectors) <= 1 {
		return
	}
	type gkey struct {
		foot  uint64
		sfoot string
		prop  uint64
	}
	order := make([]gkey, 0, len(e.Vectors))
	groups := make(map[gkey][]*Vector, len(e.Vectors))
	for _, v := range e.Vectors {
		foot, sfoot, _ := footprintKey(v.Assign, e.Boundary)
		var prop uint64
		for _, pr := range props {
			// Mix the property keys order-sensitively (as PropertyPruner).
			prop = prop*0x9e3779b97f4a7c15 + pr.Key(c, v) + 0x7f4a7c15
		}
		k := gkey{foot: foot, sfoot: sfoot, prop: prop}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], v)
	}
	maxKept := c.Risk.maxKept()
	kept := e.Vectors[:0]
	scratch := make([]int, 0, 16)
	for _, k := range order {
		g := groups[k]
		win := 0
		for i := 1; i < len(g); i++ {
			if g[i].Cost < g[win].Cost {
				win = i
			}
		}
		winSlot := len(kept)
		kept = append(kept, g[win])
		if len(g) == 1 {
			continue
		}
		idxs := scratch[:0]
		for i := range g {
			if i != win {
				idxs = append(idxs, i)
			}
		}
		sort.SliceStable(idxs, func(a, b int) bool { return g[idxs[a]].Cost < g[idxs[b]].Cost })
		nKept := 1
		for _, i := range idxs {
			v := g[i]
			if nKept < maxKept && v.Dist.Overlaps(g[win].Dist) {
				kept = append(kept, v)
				nKept++
				if st != nil {
					st.IntervalKept++
				}
				if rec != nil {
					rec.IntervalKept++
				}
				continue
			}
			if st != nil {
				st.Pruned++
			}
			rec.observeDiscard(v, winSlot)
		}
		scratch = idxs[:0]
	}
	e.Vectors = kept
}
