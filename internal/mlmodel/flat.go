package mlmodel

// Compiled tree inference. Every tree of depth ≤ flatMaxDepth is compiled
// once, when it is fitted or loaded, into a complete binary tree in heap
// order: internal node i has children 2i+1 and 2i+2, and a row reaches its
// leaf in exactly depth steps of i = 2i+1+b2i(!(x[f] <= thr)). A leaf
// above the bottom level is padded into a pass-through node whose two
// subtrees are copies of it, so either outcome of its comparison reaches the
// same value. The walk has no data-dependent branches, and eight rows walk
// interleaved so their node and feature loads overlap. Apart from the
// pass-through tests, a row makes the comparisons of the node-by-node walk
// and reaches the same leaf value, so compiled and uncompiled trees predict
// bit-identical values.

// flatMaxDepth is the deepest tree the compiler pads: 2^8−1 = 255 internal
// nodes, 4 KiB. Padding doubles per level, so deeper trees (the Forest
// default depth is 16) keep the node-by-node walk.
const flatMaxDepth = 8

// blockRows is the number of rows the tree families score per pass: every
// tree runs over one block before the next tree starts, and the per-row
// partial sums fit in fixed-size stack arrays. It matches the chunk size the
// core enumeration hands models.
const blockRows = 16

// flatNode is one internal node of a compiled tree.
type flatNode struct {
	threshold float64
	feature   int32
}

// flatTree is a tree compiled to the padded heap layout.
type flatTree struct {
	depth  int
	nodes  []flatNode // 2^depth−1 internal nodes in heap order
	value  []float64  // 2^depth leaf values, left to right
	spread []float64  // the leaves' training-target spreads, as value
}

// compileTree lays nodes out in the padded heap order, or returns nil when
// the tree is deeper than flatMaxDepth. nodes must form a tree rooted at 0
// in which every child's index is greater than its parent's.
func compileTree(nodes []treeNode) *flatTree {
	depth := treeDepth(nodes)
	if depth > flatMaxDepth {
		return nil
	}
	c := &flatTree{
		depth:  depth,
		nodes:  make([]flatNode, 1<<depth-1),
		value:  make([]float64, 1<<depth),
		spread: make([]float64, 1<<depth),
	}
	c.place(nodes, 0, 0, 0)
	return c
}

// place lays out the subtree rooted at nodes[src] from heap slot dst down.
// feature is the split feature of src's parent: a pass-through node tests
// it, so padding makes a row read no feature its node walk would not.
func (c *flatTree) place(nodes []treeNode, src int32, dst int, feature int32) {
	n := &nodes[src]
	inner := len(c.nodes)
	switch {
	case dst >= inner:
		c.value[dst-inner] = n.value
		c.spread[dst-inner] = n.spread
	case n.feature < 0:
		c.nodes[dst] = flatNode{feature: feature}
		c.place(nodes, src, 2*dst+1, feature)
		c.place(nodes, src, 2*dst+2, feature)
	default:
		c.nodes[dst] = flatNode{threshold: n.threshold, feature: n.feature}
		c.place(nodes, n.left, 2*dst+1, n.feature)
		c.place(nodes, n.right, 2*dst+2, n.feature)
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

// leaf returns the index into c.value of the leaf row x reaches.
func (c *flatTree) leaf(x []float64) int {
	nodes, i := c.nodes, 0
	for d := c.depth; d > 0; d-- {
		n := nodes[i]
		i = 2*i + 1 + b2i(!(x[n.feature] <= n.threshold))
	}
	return i - len(nodes)
}

// eval writes the leaf value of rows lo, lo+1, … of X into val, one per
// element, and their leaf spreads into spr when spr is non-nil. Rows walk
// in groups of eight; when the count is not a multiple of eight, the last
// group overlaps the one before it and rewrites its rows with the same
// values. Fewer than eight rows walk one at a time.
func (c *flatTree) eval(X *Matrix, lo int, val, spr []float64) {
	n := len(val)
	if n < 8 {
		for k := range val {
			i := c.leaf(X.Row(lo + k))
			val[k] = c.value[i]
			if spr != nil {
				spr[k] = c.spread[i]
			}
		}
		return
	}
	nodes, inner, cols, data := c.nodes, len(c.nodes), X.Cols, X.Data
	for g := 0; g < n; g += 8 {
		k := min(g, n-8) // the group's first row
		at := (lo + k) * cols
		i0, i1, i2, i3, i4, i5, i6, i7 := 0, 0, 0, 0, 0, 0, 0, 0
		for d := c.depth; d > 0; d-- {
			n0, n1, n2, n3 := nodes[i0], nodes[i1], nodes[i2], nodes[i3]
			n4, n5, n6, n7 := nodes[i4], nodes[i5], nodes[i6], nodes[i7]
			i0 = 2*i0 + 1 + b2i(!(data[at+int(n0.feature)] <= n0.threshold))
			i1 = 2*i1 + 1 + b2i(!(data[at+cols+int(n1.feature)] <= n1.threshold))
			i2 = 2*i2 + 1 + b2i(!(data[at+2*cols+int(n2.feature)] <= n2.threshold))
			i3 = 2*i3 + 1 + b2i(!(data[at+3*cols+int(n3.feature)] <= n3.threshold))
			i4 = 2*i4 + 1 + b2i(!(data[at+4*cols+int(n4.feature)] <= n4.threshold))
			i5 = 2*i5 + 1 + b2i(!(data[at+5*cols+int(n5.feature)] <= n5.threshold))
			i6 = 2*i6 + 1 + b2i(!(data[at+6*cols+int(n6.feature)] <= n6.threshold))
			i7 = 2*i7 + 1 + b2i(!(data[at+7*cols+int(n7.feature)] <= n7.threshold))
		}
		i0, i1, i2, i3, i4, i5, i6, i7 = i0-inner, i1-inner, i2-inner, i3-inner, i4-inner, i5-inner, i6-inner, i7-inner
		val[k], val[k+1], val[k+2], val[k+3] = c.value[i0], c.value[i1], c.value[i2], c.value[i3]
		val[k+4], val[k+5], val[k+6], val[k+7] = c.value[i4], c.value[i5], c.value[i6], c.value[i7]
		if spr != nil {
			spr[k], spr[k+1], spr[k+2], spr[k+3] = c.spread[i0], c.spread[i1], c.spread[i2], c.spread[i3]
			spr[k+4], spr[k+5], spr[k+6], spr[k+7] = c.spread[i4], c.spread[i5], c.spread[i6], c.spread[i7]
		}
	}
}
