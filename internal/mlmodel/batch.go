package mlmodel

import (
	"math"
	"sync"

	"repro/internal/vecops"
)

// Matrix is the flat row-major feature matrix of the batch inference path
// (an alias of vecops.Matrix, so the core enumeration can hand its arena
// matrices to models without importing this package).
type Matrix = vecops.Matrix

// BatchModel is a Model that can predict a whole feature matrix in one
// call. PredictBatch fills out[i] with the prediction for row i of X and
// must be arithmetically identical to calling Predict on each row — the
// optimizer's determinism contract compares batched and scalar runs bit for
// bit. len(out) must be at least X.Rows. Implementations must be safe for
// concurrent PredictBatch calls (the enumeration chunks one matrix across
// workers), so per-call scratch lives on the stack or is freshly allocated.
//
// Every model family in this package implements BatchModel natively; the
// Batcher adapter lifts third-party scalar models.
type BatchModel interface {
	Model
	PredictBatch(X *Matrix, out []float64)
}

// Batcher returns m as a BatchModel: natively batch-capable models are
// returned unchanged, scalar models are wrapped with a per-row loop.
func Batcher(m Model) BatchModel {
	if bm, ok := m.(BatchModel); ok {
		return bm
	}
	return scalarBatch{m}
}

// scalarBatch adapts a scalar Model to BatchModel row by row.
type scalarBatch struct{ Model }

func (b scalarBatch) PredictBatch(X *Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = b.Predict(X.Row(i))
	}
}

// PredictBatch walks every row to its leaf: the comparisons of the scalar
// Predict, hence the same leaf values.
func (t *Tree) PredictBatch(X *Matrix, out []float64) { t.score(X, out, nil) }

// PredictBatch averages the trees' estimates in tree order — the scalar
// Predict is the one-row case of the same loop, so results are
// bit-identical.
func (f *Forest) PredictBatch(X *Matrix, out []float64) { f.score(X, out, nil) }

// score fills mean with the forest's estimate for every row of X and, when
// spread is non-nil, spread with the population std of each row's tree
// estimates. Every row sums its tree estimates, and their squares, in tree
// order, and scales the sums by 1/len(trees).
func (f *Forest) score(X *Matrix, mean, spread []float64) {
	var blk rowBlock
	defer blk.release()
	for lo := 0; lo < X.Rows; lo += blockRows {
		out := mean[lo:min(lo+blockRows, X.Rows)]
		f.lay.load(&blk, X, lo, len(out))
		for r := range out {
			out[r] = 0
		}
		var sq [blockRows]float64
		var sqs []float64 // the sums of squares, when the spread is wanted
		if spread != nil {
			sqs = sq[:len(out)]
		}
		f.lay.sum(f.trees, &blk, 0, len(f.trees), 1, out, sqs)
		for r := range out {
			out[r] *= f.inv
		}
		if spread == nil {
			continue
		}
		for r, m := range out {
			v := sq[r]*f.inv - m*m
			if v < 0 {
				v = 0
			}
			spread[lo+r] = math.Sqrt(v)
		}
	}
}

// PredictBatch applies the boosting rounds in order, adding lr·tree(x) per
// round — the scalar Predict is the one-row case of the same loop, so
// results are bit-identical.
func (g *GBM) PredictBatch(X *Matrix, out []float64) { g.score(X, out, nil) }

// score fills mean with the boosted estimate for every row of X and, when
// spread is non-nil, spread with the population std of each row's partial
// sums after the last gbmTailWindow rounds (see PredictBatchDist). Every
// row starts from the base and adds lr·tree(x) round by round; on the tail
// rounds it also folds each partial sum, and its square, into running
// sums.
func (g *GBM) score(X *Matrix, mean, spread []float64) {
	nt := len(g.trees)
	k := min(nt, gbmTailWindow)
	head := nt
	if spread != nil {
		head = nt - k
	}
	var blk rowBlock
	defer blk.release()
	for lo := 0; lo < X.Rows; lo += blockRows {
		out := mean[lo:min(lo+blockRows, X.Rows)]
		g.lay.load(&blk, X, lo, len(out))
		for r := range out {
			out[r] = g.base
		}
		g.lay.sum(g.trees, &blk, 0, head, g.lr, out, nil)
		if spread == nil {
			continue
		}
		var s, sq [blockRows]float64
		for t := head; t < nt; t++ {
			g.lay.sum(g.trees, &blk, t, t+1, g.lr, out, nil)
			for r, a := range out {
				s[r] += a
				sq[r] += a * a
			}
		}
		for r := range out {
			if k == 0 {
				spread[lo+r] = 0
				continue
			}
			mu := s[r] / float64(k)
			v := sq[r]/float64(k) - mu*mu
			if v < 0 {
				v = 0
			}
			spread[lo+r] = math.Sqrt(v)
		}
	}
}

// PredictBatch is one vecops dot product per row.
func (l *Linear) PredictBatch(X *Matrix, out []float64) {
	for i := 0; i < X.Rows; i++ {
		out[i] = vecops.Dot(l.Weights, X.Row(i)) + l.Intercept
	}
}

// PredictBatch evaluates the network hidden-unit-major: each hidden unit's
// weight row is loaded once and applied to every row of X. The per-row
// accumulation order over hidden units matches the scalar Predict, so
// results are bit-identical.
func (m *MLP) PredictBatch(X *Matrix, out []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		out[i] = 0
	}
	for j, wj := range m.w1 {
		w2j := m.w2[j]
		b1j := m.b1[j]
		for r := 0; r < n; r++ {
			x := X.Row(r)
			s := b1j
			for i, w := range wj {
				s += w * (x[i] - m.xMean[i]) / m.xStd[i]
			}
			out[r] += w2j * math.Tanh(s)
		}
	}
	for r := 0; r < n; r++ {
		out[r] = (out[r]+m.b2)*m.yStd + m.yMean
	}
}

// PredictBatch averages the members' batched predictions in member order,
// matching the scalar Predict's accumulation exactly. Members score
// blockRows rows at a time into pooled scratch, so a call allocates
// nothing.
func (e Ensemble) PredictBatch(X *Matrix, out []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		out[i] = 0
	}
	if len(e.Models) == 0 {
		return
	}
	sc := getMemberScratch()
	defer sc.release()
	for lo := 0; lo < n; lo += blockRows {
		sub, tmp := sc.chunk(X, lo)
		for _, m := range e.Models {
			Batcher(m).PredictBatch(sub, tmp)
			for r, v := range tmp {
				out[lo+r] += v
			}
		}
	}
	div := float64(len(e.Models))
	for i := 0; i < n; i++ {
		out[i] /= div
	}
}

// memberScratch is the scratch an Ensemble scores its members through: a
// view of one chunk of the input and the members' outputs for it. Passed
// to the members' PredictBatch through an interface, stack scratch would
// escape to the heap on every call; pooled scratch is reused instead.
type memberScratch struct {
	sub Matrix
	tmp [blockRows]float64
	// pad holds a chunk whose matrix lacks the rowSpan tail capacity the
	// tree walk reads rows in place through: staged once here, the chunk
	// is read in place by every member instead of staged by each.
	pad []float64
}

var memberScratches = sync.Pool{New: func() any { return new(memberScratch) }}

func getMemberScratch() *memberScratch { return memberScratches.Get().(*memberScratch) }

// release returns the scratch to the pool without its view, which would
// otherwise keep the caller's matrix reachable.
func (sc *memberScratch) release() {
	sc.sub = Matrix{}
	memberScratches.Put(sc)
}

// chunk points the scratch at rows [lo, lo+blockRows) of X (fewer at the
// end), in place or copied to pad, and returns that view with an output
// slice of the same length.
func (sc *memberScratch) chunk(X *Matrix, lo int) (*Matrix, []float64) {
	hi := min(lo+blockRows, X.Rows)
	sc.sub = X.RowsView(lo, hi)
	if cap(sc.sub.Data)-(hi-lo-1)*X.Cols < rowSpan {
		if n := blockRows*X.Cols + rowSpan; len(sc.pad) < n {
			sc.pad = make([]float64, n)
		}
		sc.sub.Data = sc.pad[:copy(sc.pad, sc.sub.Data)]
	}
	return &sc.sub, sc.tmp[:hi-lo]
}

// PredictBatch exponentiates the inner model's batched estimates with the
// same expm1-and-clamp as the scalar Predict.
func (m LogTarget) PredictBatch(X *Matrix, out []float64) {
	n := X.Rows
	if n == 0 {
		return
	}
	Batcher(m.Inner).PredictBatch(X, out)
	for i := 0; i < n; i++ {
		y := math.Expm1(out[i])
		if y < 0 {
			y = 0
		}
		out[i] = y
	}
}
