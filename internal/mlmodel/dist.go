package mlmodel

import "math"

// Distributional prediction: every model family reports not just a point
// estimate but a (mean, spread, lo, hi) summary of its predictive
// distribution. The mean is ALWAYS bit-identical to the scalar/batch point
// path — the optimizer's determinism and λ=0 parity contracts compare them
// bit for bit — so each family's PredictBatchDist replays the exact
// accumulation order of its PredictBatch and derives the uncertainty
// summary from intermediate quantities that were computed anyway (or nearly
// so):
//
//   - Forest:   spread = population std of the per-tree predictions
//               (bagging disagreement); lo/hi = mean ∓ z·spread.
//   - GBM:      "virtual ensemble" tail: the last K partial boosted sums are
//               K estimates of the target; spread = their population std
//               (boosting convergence noise); lo/hi = mean ∓ z·spread.
//   - Ensemble: spread = population std of the member predictions
//               (training-data disagreement); lo/hi = min/max member.
//   - Tree:     per-leaf training-target std recorded at fit time;
//               lo/hi = mean ∓ z·spread.
//   - Linear:   global training-residual std (homoscedastic);
//               lo/hi = mean ∓ z·spread.
//   - MLP:      global training-residual std, as Linear.
//   - LogTarget: the inner interval pushed through the monotone
//               expm1-and-clamp transform; spread = half the interval width.
//
// z is chosen so [lo, hi] approximates the central 90% interval under a
// Gaussian spread assumption. Models loaded from legacy artifacts that
// predate the uncertainty fields degrade gracefully to zero spread.

// zInterval is the standard-normal quantile for the central 90% interval.
const zInterval = 1.645

// DistModel is a Model that also reports the uncertainty of a single
// prediction. mean is bit-identical to Predict(x).
type DistModel interface {
	Model
	PredictDist(x []float64) (mean, spread, lo, hi float64)
}

// BatchDistModel is the batched counterpart of DistModel: it fills the four
// parallel output slices for every row of X. mean[i] must be bit-identical
// to PredictBatch's out[i]; spread is nonnegative and lo ≤ mean ≤ hi holds
// row-wise. len of each slice must be at least X.Rows. Implementations must
// be safe for concurrent calls, like PredictBatch.
type BatchDistModel interface {
	Model
	PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64)
}

// DistBatcher returns m as a BatchDistModel: natively dist-capable models
// are returned unchanged, point-only models are adapted with zero spread
// (lo = hi = mean), preserving the batched mean path exactly.
func DistBatcher(m Model) BatchDistModel {
	if dm, ok := m.(BatchDistModel); ok {
		return dm
	}
	return pointDist{Batcher(m)}
}

// pointDist adapts a point-only model: the predictive distribution collapses
// to the mean.
type pointDist struct{ BatchModel }

func (p pointDist) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	p.PredictBatch(X, mean)
	for i := 0; i < X.Rows; i++ {
		spread[i] = 0
		lo[i] = mean[i]
		hi[i] = mean[i]
	}
}

// distOne evaluates a batch-dist model on a single row.
func distOne(m BatchDistModel, x []float64) (mean, spread, lo, hi float64) {
	X := Matrix{Data: x, Rows: 1, Cols: len(x)}
	var mv, sv, lv, hv [1]float64
	m.PredictBatchDist(&X, mv[:], sv[:], lv[:], hv[:])
	return mv[0], sv[0], lv[0], hv[0]
}

// zBounds fills lo/hi with the symmetric z-interval around mean.
func zBounds(n int, mean, spread, lo, hi []float64) {
	for i := 0; i < n; i++ {
		d := zInterval * spread[i]
		lo[i] = mean[i] - d
		hi[i] = mean[i] + d
	}
}

// PredictDist returns the tree's leaf mean and the training-target std of
// that leaf.
func (t *Tree) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(t, x)
}

// PredictBatchDist is PredictBatch plus each row's leaf spread.
func (t *Tree) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	t.score(X, mean, spread)
	zBounds(X.Rows, mean, spread, lo, hi)
}

// PredictDist returns the forest mean and the per-tree disagreement.
func (f *Forest) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(f, x)
}

// PredictBatchDist runs the loop of PredictBatch, so means are
// bit-identical, and also tracks each row's sum of squared tree estimates
// to derive the population std of the tree predictions.
func (f *Forest) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	f.score(X, mean, spread)
	zBounds(X.Rows, mean, spread, lo, hi)
}

// gbmTailWindow is the number of trailing boosting rounds whose partial sums
// form the GBM's virtual ensemble.
const gbmTailWindow = 16

// PredictDist returns the boosted mean and the convergence noise of the
// final boosting rounds.
func (g *GBM) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(g, x)
}

// PredictBatchDist runs the loop of PredictBatch (bit-identical means) and
// snapshots the partial boosted sum after each of the last gbmTailWindow
// rounds; the population std of those partials is the spread. A model still
// moving in its final rounds is uncertain; one that has flattened out is
// confident.
func (g *GBM) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	g.score(X, mean, spread)
	zBounds(X.Rows, mean, spread, lo, hi)
}

// PredictDist returns the linear estimate with the model's homoscedastic
// training-residual spread.
func (l *Linear) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(l, x)
}

// PredictBatchDist is PredictBatch plus the constant residual spread.
func (l *Linear) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	l.PredictBatch(X, mean)
	for i := 0; i < n; i++ {
		spread[i] = l.ResidStd
	}
	zBounds(n, mean, spread, lo, hi)
}

// PredictDist returns the network estimate with the model's homoscedastic
// training-residual spread.
func (m *MLP) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(m, x)
}

// PredictBatchDist is PredictBatch plus the constant residual spread.
func (m *MLP) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	m.PredictBatch(X, mean)
	for i := 0; i < n; i++ {
		spread[i] = m.residStd
	}
	zBounds(n, mean, spread, lo, hi)
}

// PredictDist returns the ensemble mean with the members' disagreement.
func (e Ensemble) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(e, x)
}

// PredictBatchDist averages the members' batched point predictions in member
// order — the same accumulation as PredictBatch, so means are bit-identical —
// and reports the population std of the member predictions as the spread
// with the member min/max as the interval. Like PredictBatch it scores
// through pooled scratch and allocates nothing.
func (e Ensemble) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		mean[i] = 0
		spread[i] = 0
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	if len(e.Models) == 0 {
		for i := 0; i < n; i++ {
			lo[i] = 0
			hi[i] = 0
		}
		return
	}
	sc := getMemberScratch()
	defer sc.release()
	for c := 0; c < n; c += blockRows {
		sub, tmp := sc.chunk(X, c)
		for _, m := range e.Models {
			Batcher(m).PredictBatch(sub, tmp)
			for r, v := range tmp {
				i := c + r
				mean[i] += v
				spread[i] += v * v
				if v < lo[i] {
					lo[i] = v
				}
				if v > hi[i] {
					hi[i] = v
				}
			}
		}
	}
	div := float64(len(e.Models))
	for i := 0; i < n; i++ {
		mean[i] /= div
		v := spread[i]/div - mean[i]*mean[i]
		if v < 0 {
			v = 0
		}
		spread[i] = math.Sqrt(v)
	}
}

// PredictDist returns the exponentiated estimate with the inner interval
// pushed through the transform.
func (m LogTarget) PredictDist(x []float64) (mean, spread, lo, hi float64) {
	return distOne(m, x)
}

// PredictBatchDist exponentiates the inner model's distributional estimates.
// The mean takes the same expm1-and-clamp as PredictBatch (bit-identical);
// the interval bounds ride through the monotone transform, and the spread is
// re-derived as half the transformed interval width — a std in log space has
// no fixed meaning in seconds.
func (m LogTarget) PredictBatchDist(X *Matrix, mean, spread, lo, hi []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	DistBatcher(m.Inner).PredictBatchDist(X, mean, spread, lo, hi)
	for i := 0; i < n; i++ {
		y := math.Expm1(mean[i])
		if y < 0 {
			y = 0
		}
		l := math.Expm1(lo[i])
		if l < 0 {
			l = 0
		}
		h := math.Expm1(hi[i])
		if h < 0 {
			h = 0
		}
		if l > h {
			l, h = h, l
		}
		if l > y {
			l = y
		}
		if h < y {
			h = y
		}
		mean[i] = y
		lo[i] = l
		hi[i] = h
		spread[i] = (h - l) / 2
	}
}
