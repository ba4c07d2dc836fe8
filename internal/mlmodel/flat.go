package mlmodel

import (
	"fmt"
	"sync"

	"repro/internal/vecops"
)

// Compiled tree inference. A tree model (Tree, Forest or GBM) compiles all
// of its trees once, when it is fitted or loaded, into one layout. Every
// tree is padded to the model's largest depth D ≤ flatMaxDepth and numbered
// 1-based in heap order: node i has children 2i and 2i+1, and a row reaches
// its leaf in exactly D steps of i = 2i + b2i(!(x[f] <= thr)). A leaf above
// the bottom level becomes a pass-through node whose two subtrees are copies
// of it, so either outcome of its comparison reaches the same value. Tree t
// owns the node slots [t·2^D, (t+1)·2^D) (slot 0 of each is unused) and,
// since a walk ends at a heap index i in [2^D, 2^(D+1)), the leaf values
// [(t+1)·2^D, (t+2)·2^D), where i addresses its leaf at t·2^D + i. Both
// slices carry tail padding, so the walk reads a tree through
// (*[256]flatNode) and (*[512]float64) views with masks and a row through
// a (*[rowSpan]float64) view with a feature mask: its inner loop has no
// bounds checks and no data-dependent branches. Apart from the
// pass-through tests, a row makes the comparisons of the node-by-node walk
// and reaches the same leaf value, so compiled and uncompiled models
// predict bit-identical values.
//
// The walk takes eight rows through every tree of a range at once, keeping
// each row's running sum in a register; the interleaved rows overlap their
// node and feature loads.

// flatMaxDepth is the deepest tree the compiler pads: 2^8 = 256 node slots
// per tree. Padding doubles per level, so a model with a deeper tree (the
// Forest default depth is 16) keeps the node-by-node walk.
const flatMaxDepth = 8

// rowSpan is the width of the view the walk reads a row through: a model
// that splits on a feature ≥ rowSpan keeps the node walk, and a matrix is
// read in place only when every row has rowSpan cells of capacity past its
// start (see rowBlock.load).
const rowSpan = vecops.RowSpan

// blockRows is the number of rows the tree families score per pass: the
// per-row sums of a block fit in fixed-size stack arrays, and a matrix
// without tail capacity is staged this many rows at a time. It matches the
// block size the core enumeration hands models.
const blockRows = 16

// flatNode is one internal node of a compiled tree.
type flatNode struct {
	threshold float64
	feature   int32
}

// layout is the compiled form of a tree model's trees (see above).
type layout struct {
	depth   int
	nodes   []flatNode
	leaves  []float64
	maxFeat int // the largest feature a split reads, −1 if none
}

// compileTrees lays out trees, each followed, when spread is set, by a copy
// whose leaves hold the leaves' training-target spreads (tree t's copy is
// tree len(trees)+t). It returns nil when a tree is deeper than
// flatMaxDepth or splits on a feature ≥ rowSpan. Every tree's nodes must
// form a tree rooted at 0 in which every child's index is greater than its
// parent's.
func compileTrees(trees []*Tree, spread bool) *layout {
	depth, maxFeat := 0, -1
	for _, t := range trees {
		depth = max(depth, treeDepth(t.nodes))
		maxFeat = max(maxFeat, treeWidth(t)-1)
	}
	if depth > flatMaxDepth || maxFeat >= rowSpan {
		return nil
	}
	n := len(trees)
	if spread {
		n *= 2
	}
	stride := 1 << depth
	l := &layout{
		depth:   depth,
		maxFeat: maxFeat,
		nodes:   make([]flatNode, n*stride+256-stride),
		leaves:  make([]float64, n*stride+512-stride),
	}
	for i, t := range trees {
		l.place(t.nodes, i*stride, 0, 1, 0, false)
		if spread {
			l.place(t.nodes, (len(trees)+i)*stride, 0, 1, 0, true)
		}
	}
	return l
}

// place lays out the subtree rooted at nodes[src] from heap slot dst down,
// in the tree whose slots start at base; the leaves get their spreads
// instead of their values when spread is set. feature is the split feature
// of src's parent: a pass-through node tests it, so padding makes a row
// read no feature its node walk would not.
func (l *layout) place(nodes []treeNode, base int, src int32, dst int, feature int32, spread bool) {
	n := &nodes[src]
	lead := 1 << l.depth
	switch {
	case dst >= lead:
		v := n.value
		if spread {
			v = n.spread
		}
		l.leaves[base+dst] = v
	case n.feature < 0:
		l.nodes[base+dst] = flatNode{feature: feature}
		l.place(nodes, base, src, 2*dst, feature, spread)
		l.place(nodes, base, src, 2*dst+1, feature, spread)
	default:
		l.nodes[base+dst] = flatNode{threshold: n.threshold, feature: n.feature}
		l.place(nodes, base, n.left, 2*dst, n.feature, spread)
		l.place(nodes, base, n.right, 2*dst+1, n.feature, spread)
	}
}

// treeDepth returns the number of edges on the tree's longest root-to-leaf
// path. It relies on every child's index being greater than its parent's.
func treeDepth(nodes []treeNode) int {
	level := make([]int, len(nodes))
	depth := 0
	for i, n := range nodes {
		if n.feature >= 0 {
			level[n.left] = level[i] + 1
			level[n.right] = level[i] + 1
			depth = max(depth, level[i]+1)
		}
	}
	return depth
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag set.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rowView is one input row as the walk reads it.
type rowView = *[rowSpan]float64

// rowBlock is up to blockRows consecutive rows of a matrix, viewed for the
// compiled walk: in place when the matrix has rowSpan cells of capacity past
// every row's start, otherwise copied into pooled padded scratch.
type rowBlock struct {
	X     Matrix // a copy, so the caller's matrix header stays on its stack
	lo    int    // the block's first row in X
	x     [blockRows]rowView
	stage *stageBuf
}

// load points blk at rows [lo, lo+n) of X. Without a layout the node walk
// reads X directly and no views are built. It panics, as the node walk
// would, when the model splits on a feature X does not have: a masked read
// would otherwise return a cell of the next row or of the padding.
func (l *layout) load(blk *rowBlock, X *Matrix, lo, n int) {
	blk.X, blk.lo = *X, lo
	if l == nil {
		return
	}
	cols := X.Cols
	if l.maxFeat >= cols {
		panic(fmt.Sprintf("mlmodel: model splits on feature %d of a %d-column row", l.maxFeat, cols))
	}
	at := lo * cols
	if cap(X.Data)-(at+(n-1)*cols) >= rowSpan {
		data := X.Data[:cap(X.Data)]
		for r := 0; r < n; r++ {
			blk.x[r] = rowView(data[at+r*cols:])
		}
		return
	}
	if blk.stage == nil {
		blk.stage = getStage(cols)
	}
	buf := blk.stage.data
	for r := 0; r < n; r++ {
		copy(buf[r*cols:(r+1)*cols], X.Row(lo+r))
		blk.x[r] = rowView(buf[r*cols:])
	}
}

// release returns the block's staging scratch, if any, to its pool.
func (blk *rowBlock) release() {
	if blk.stage != nil {
		stages.Put(blk.stage)
		blk.stage = nil
	}
}

// stageBuf is padded scratch for one block of rows.
type stageBuf struct{ data []float64 }

var stages = sync.Pool{New: func() any { return new(stageBuf) }}

// getStage returns scratch for blockRows rows of cols cells, each with
// rowSpan cells past its start.
func getStage(cols int) *stageBuf {
	s := stages.Get().(*stageBuf)
	if n := blockRows*cols + rowSpan; len(s.data) < n {
		s.data = make([]float64, n)
	}
	return s
}

// sum adds scale·v to acc[r], and v·v to sq[r] when sq is non-nil, for the
// leaf value v that each tree of [t0, t1) gives row r of blk, tree by tree.
// Without a layout it walks the trees node by node.
func (l *layout) sum(trees []*Tree, blk *rowBlock, t0, t1 int, scale float64, acc, sq []float64) {
	if l == nil {
		for r := range acc {
			x := blk.X.Row(blk.lo + r)
			a := acc[r]
			for _, t := range trees[t0:t1] {
				v := t.leaf(x).value
				a += scale * v
				if sq != nil {
					sq[r] += v * v
				}
			}
			acc[r] = a
		}
		return
	}
	// Rows walk in groups of eight; a group short of eight rows fills its
	// lanes by repeating its last row and keeps only its own results. An
	// eight-lane walk costs about four single-row walks, so fewer than four
	// rows walk one at a time.
	n := len(acc)
	if n < 4 {
		for r := range acc {
			var s *float64
			if sq != nil {
				s = &sq[r]
			}
			acc[r] = l.walk1(blk.x[r], t0, t1, scale, acc[r], s)
		}
		return
	}
	for g := 0; g < n; g += 8 {
		var x [8]rowView
		var a, s [8]float64
		for r := range x {
			k := min(g+r, n-1)
			x[r], a[r] = blk.x[k], acc[k]
			if sq != nil {
				s[r] = sq[k]
			}
		}
		var sp *[8]float64
		if sq != nil {
			sp = &s
		}
		l.walk8(&x, t0, t1, scale, &a, sp)
		copy(acc[g:], a[:])
		if sq != nil {
			copy(sq[g:], s[:])
		}
	}
}

// walk1 is walk8 for one row: it returns a plus scale·v for every tree's
// leaf value v, tree by tree, adding v·v to *sq when sq is non-nil.
func (l *layout) walk1(x rowView, t0, t1 int, scale, a float64, sq *float64) float64 {
	d := uint(l.depth)
	for t := t0; t < t1; t++ {
		nv := (*[256]flatNode)(l.nodes[t<<d:])
		i := 1
		for s := d; s > 0; s-- {
			n := nv[i&255]
			i = 2*i + b2i(!(x[n.feature&(rowSpan-1)] <= n.threshold))
		}
		v := (*[512]float64)(l.leaves[t<<d:])[i&511]
		a += scale * v
		if sq != nil {
			*sq += v * v
		}
	}
	return a
}

// walk8 takes eight rows through the trees [t0, t1): for each tree in
// order, it adds scale·v to acc[r] for the leaf value v row x[r] reaches,
// and v·v to sq[r] when sq is non-nil. The running sums stay in registers
// across trees.
func (l *layout) walk8(x *[8]rowView, t0, t1 int, scale float64, acc, sq *[8]float64) {
	d := uint(l.depth)
	a0, a1, a2, a3, a4, a5, a6, a7 := acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7]
	for t := t0; t < t1; t++ {
		nv := (*[256]flatNode)(l.nodes[t<<d:])
		i0, i1, i2, i3, i4, i5, i6, i7 := 1, 1, 1, 1, 1, 1, 1, 1
		for s := d; s > 0; s-- {
			n0 := nv[i0&255]
			i0 = 2*i0 + b2i(!(x[0][n0.feature&(rowSpan-1)] <= n0.threshold))
			n1 := nv[i1&255]
			i1 = 2*i1 + b2i(!(x[1][n1.feature&(rowSpan-1)] <= n1.threshold))
			n2 := nv[i2&255]
			i2 = 2*i2 + b2i(!(x[2][n2.feature&(rowSpan-1)] <= n2.threshold))
			n3 := nv[i3&255]
			i3 = 2*i3 + b2i(!(x[3][n3.feature&(rowSpan-1)] <= n3.threshold))
			n4 := nv[i4&255]
			i4 = 2*i4 + b2i(!(x[4][n4.feature&(rowSpan-1)] <= n4.threshold))
			n5 := nv[i5&255]
			i5 = 2*i5 + b2i(!(x[5][n5.feature&(rowSpan-1)] <= n5.threshold))
			n6 := nv[i6&255]
			i6 = 2*i6 + b2i(!(x[6][n6.feature&(rowSpan-1)] <= n6.threshold))
			n7 := nv[i7&255]
			i7 = 2*i7 + b2i(!(x[7][n7.feature&(rowSpan-1)] <= n7.threshold))
		}
		lv := (*[512]float64)(l.leaves[t<<d:])
		v0, v1, v2, v3 := lv[i0&511], lv[i1&511], lv[i2&511], lv[i3&511]
		v4, v5, v6, v7 := lv[i4&511], lv[i5&511], lv[i6&511], lv[i7&511]
		a0 += scale * v0
		a1 += scale * v1
		a2 += scale * v2
		a3 += scale * v3
		a4 += scale * v4
		a5 += scale * v5
		a6 += scale * v6
		a7 += scale * v7
		if sq != nil {
			sq[0] += v0 * v0
			sq[1] += v1 * v1
			sq[2] += v2 * v2
			sq[3] += v3 * v3
			sq[4] += v4 * v4
			sq[5] += v5 * v5
			sq[6] += v6 * v6
			sq[7] += v7 * v7
		}
	}
	acc[0], acc[1], acc[2], acc[3], acc[4], acc[5], acc[6], acc[7] = a0, a1, a2, a3, a4, a5, a6, a7
}
