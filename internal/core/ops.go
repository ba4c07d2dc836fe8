package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/plan"
	"repro/internal/platform"
	"repro/internal/vecops"
)

// Enumeration is a plan vector enumeration V = (s, V) (Definition 1): a
// scope s of operator IDs and a set of plan vectors, each representing one
// execution plan for the logical subplan spanned by the scope. Boundary
// caches the scope's boundary operators (Definition 2) in ascending order.
type Enumeration struct {
	Scope    plan.Bitset
	Boundary []plan.OpID
	Vectors  []*Vector
}

// Size returns the number of plan vectors in the enumeration.
func (e *Enumeration) Size() int { return len(e.Vectors) }

// arenaEnum allocates an enumeration of n vectors whose feature rows share
// one flat block and whose assignments share another — four allocations
// instead of 3n.
func (c *Context) arenaEnum(scope plan.Bitset, n int) *Enumeration {
	e := &Enumeration{Scope: scope, Vectors: make([]*Vector, n)}
	vecs := make([]Vector, n)
	cols, nOps := c.Schema.Len(), c.Plan.NumOps()
	f := make([]float64, n*cols)
	assign := make([]uint8, n*nOps)
	for i := range vecs {
		v := &vecs[i]
		v.F = f[i*cols : (i+1)*cols : (i+1)*cols]
		v.Assign = assign[i*nOps : (i+1)*nOps : (i+1)*nOps]
		e.Vectors[i] = v
	}
	return e
}

// ---------------------------------------------------------------------------
// Core operations (Section IV-C)
// ---------------------------------------------------------------------------

// Vectorize transforms the logical plan into an abstract plan vector
// (operation 1): structure features are fixed, and for every operator kind
// with more than one execution alternative the per-platform cells hold -1,
// indicating the open choice.
func (c *Context) Vectorize() *Abstract {
	s := c.Schema
	a := &Abstract{F: make([]float64, s.Len()), Scope: plan.NewBitset(c.Plan.NumOps())}
	for _, o := range c.Plan.Ops {
		a.Scope.Set(o.ID)
		c.addSingletonStructure(a.F, o)
		for _, pi := range c.alternatives[o.ID] {
			if len(c.alternatives[o.ID]) == 1 {
				a.F[s.OpPlatformCell(o.Kind, int(pi))]++
			} else {
				a.F[s.OpPlatformCell(o.Kind, int(pi))] = -1
			}
		}
	}
	// Fuse pipeline segments exactly as the merge operation will, so the
	// abstract structure matches the merged concrete vectors.
	a.F[TopoPipeline] -= float64(c.totalFuses())
	a.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return a
}

// addPlatformChoice records operator o running on platform column pi:
// the per-platform instance cell of its kind plus the platform-load cells.
func (c *Context) addPlatformChoice(f []float64, o *plan.Operator, pi int) {
	s := c.Schema
	f[s.OpPlatformCell(o.Kind, pi)]++
	iters := c.effIters[o.ID]
	f[s.OpPlatInCardCell(o.Kind, pi)] += o.InputCard * iters
	f[s.OpPlatOutCardCell(o.Kind, pi)] += o.OutputCard * iters
	f[s.LoadCell(pi)] += o.InputCard * o.UDF.CostFactor() * iters
	f[s.PlatOpsCell(pi)]++
	if o.Kind.IsShuffling() {
		f[s.ShuffleLoadCell(pi)] += o.InputCard * iters
	}
	if o.Kind.IsSource() {
		f[s.IOBytesCell(pi)] += o.OutputCard * c.Plan.AvgTupleBytes
	} else if o.Kind.IsSink() {
		f[s.IOBytesCell(pi)] += o.InputCard * c.Plan.AvgTupleBytes
	}
	card := o.InputCard
	if o.OutputCard > card {
		card = o.OutputCard
	}
	if bytes := card * c.Plan.AvgTupleBytes; bytes > f[s.MaxBytesCell(pi)] {
		f[s.MaxBytesCell(pi)] = bytes
	}
}

// convCard returns the effective cardinality a conversion on edge e moves
// over the whole execution: a conversion between two in-loop operators
// repeats every iteration, so the moved tuples multiply accordingly.
func (c *Context) convCard(e plan.Edge) float64 {
	card := c.Plan.EdgeCard(e)
	if it := c.effIters[e.From]; it > 1 && c.effIters[e.To] > 1 {
		card *= it
	}
	return card
}

// totalFuses counts dataflow edges whose endpoints are both linear: each
// such edge fuses two pipeline segments into one.
func (c *Context) totalFuses() int {
	fuses := 0
	for _, e := range c.edges {
		if c.linear[e.From] && c.linear[e.To] {
			fuses++
		}
	}
	return fuses
}

// addSingletonStructure adds operator o's platform-independent feature
// contribution to f: topology counts, kind totals, topology membership, UDF
// complexity and cardinalities.
func (c *Context) addSingletonStructure(f []float64, o *plan.Operator) {
	s := c.Schema
	switch c.opClass[o.ID] {
	case classJuncture:
		f[TopoJuncture]++
		f[s.OpInTopologyCell(o.Kind, TopoJuncture)]++
	case classReplicate:
		f[TopoReplicate]++
		f[s.OpInTopologyCell(o.Kind, TopoReplicate)]++
	default:
		f[TopoPipeline]++
		f[s.OpInTopologyCell(o.Kind, TopoPipeline)]++
	}
	if o.LoopID != 0 {
		f[s.OpInTopologyCell(o.Kind, TopoLoop)]++
		if c.loopHead[o.ID] {
			f[TopoLoop]++
		}
	}
	f[s.OpTotalCell(o.Kind)]++
	f[s.OpUDFCell(o.Kind)] += o.UDF.Weight()
	// Cardinality cells record the tuples the operator processes over the
	// whole execution: in-loop operators run once per iteration, so their
	// per-pass cardinality is multiplied by the loop's iteration count.
	// This is how iteration counts enter the plan vector at all.
	iters := c.effIters[o.ID]
	f[s.OpInCardCell(o.Kind)] += o.InputCard * iters
	f[s.OpOutCardCell(o.Kind)] += o.OutputCard * iters
}

// Split divides an abstract plan vector into singleton abstract vectors, one
// per operator in its scope (operation 4). The results are pair-wise
// disjoint and their union covers the input scope, which renders the
// enumeration parallelizable and is the entry point of Algorithm 1 (line 2).
func (c *Context) Split(a *Abstract) []*Abstract {
	ids := a.Scope.IDs()
	out := make([]*Abstract, 0, len(ids))
	s := c.Schema
	for _, id := range ids {
		o := c.Plan.Op(id)
		sa := &Abstract{F: make([]float64, s.Len()), Scope: plan.NewBitset(c.Plan.NumOps())}
		sa.Scope.Set(id)
		c.addSingletonStructure(sa.F, o)
		for _, pi := range c.alternatives[id] {
			if len(c.alternatives[id]) == 1 {
				sa.F[s.OpPlatformCell(o.Kind, int(pi))]++
			} else {
				sa.F[s.OpPlatformCell(o.Kind, int(pi))] = -1
			}
		}
		sa.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
		out = append(out, sa)
	}
	return out
}

// Enumerate instantiates an abstract plan vector into the plan vector
// enumeration of all its concrete execution alternatives (operation 2). For
// a singleton scope this yields one vector per available platform; for
// larger scopes it takes the cartesian product of the operators'
// alternatives, i.e. the exhaustive enumeration of the subplan. maxVectors
// guards against accidental exponential blow-ups: 0 means unlimited. ctx
// cancels the enumeration (checked between merges, every mergeBlock pairs);
// nil means context.Background().
func (c *Context) Enumerate(ctx context.Context, a *Abstract, maxVectors int, st *Stats) (*Enumeration, error) {
	ids := a.Scope.IDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("core: cannot enumerate an empty scope")
	}
	check := func() error { return nil }
	if ctx != nil && ctx.Done() != nil {
		check = ctx.Err
	}
	e := c.enumerateSingleton(ids[0], st)
	for _, id := range ids[1:] {
		if err := check(); err != nil {
			return nil, err
		}
		next := c.enumerateSingleton(id, st)
		pairs := Iterate(e, next)
		// The concatenation has exactly len(pairs) vectors, so an
		// oversized product is rejected before its arena is allocated.
		if maxVectors > 0 && len(pairs) > maxVectors {
			return nil, fmt.Errorf("core: enumeration exceeds %d vectors", maxVectors)
		}
		info := c.MergeInfo(e, next)
		merged := c.arenaEnum(e.Scope.Union(next.Scope), len(pairs))
		for i, pr := range pairs {
			if i%mergeBlock == 0 {
				if err := check(); err != nil {
					return nil, err
				}
			}
			c.mergeInto(merged.Vectors[i], pr[0], pr[1], info)
		}
		if st != nil {
			st.Merges += len(pairs)
			st.VectorsCreated += len(pairs)
		}
		merged.Boundary = c.boundaryOf(merged.Scope)
		e = merged
		if st != nil {
			st.observe(len(e.Vectors))
		}
	}
	return e, nil
}

// enumerateSingleton returns the enumeration of a single operator: one plan
// vector per available execution operator.
func (c *Context) enumerateSingleton(id plan.OpID, st *Stats) *Enumeration {
	o := c.Plan.Op(id)
	scope := plan.NewBitset(c.Plan.NumOps())
	scope.Set(id)
	e := c.arenaEnum(scope, len(c.alternatives[id]))
	e.Boundary = c.boundaryOf(scope)
	for vi, pi := range c.alternatives[id] {
		v := e.Vectors[vi]
		for i := range v.Assign {
			v.Assign[i] = Unassigned
		}
		v.Assign[id] = pi
		c.singletonRow(v.F, o, pi)
		if st != nil {
			st.VectorsCreated++
		}
	}
	return e
}

// singletonRow adds to f the features of operator o running on platform
// column pi.
func (c *Context) singletonRow(f []float64, o *plan.Operator, pi uint8) {
	c.addSingletonStructure(f, o)
	c.addPlatformChoice(f, o, int(pi))
	f[c.Schema.DatasetCell()] = c.Plan.AvgTupleBytes
}

// sparseSingletons returns, in operator order, the singleton enumeration of
// every operator (see enumerateSingleton) with sparse vectors. All of them
// share their blocks: the enumerations, the vectors, the assignments and
// the cells each take one allocation, sized exactly.
func (c *Context) sparseSingletons(st *Stats) []*Enumeration {
	ops, cols, nOps := c.Plan.Ops, c.Schema.Len(), c.Plan.NumOps()
	row := getScoreBlock(cols)
	defer scoreBlocks.Put(row)
	f := row.X.Row(0)
	n, cells := 0, 0
	for _, o := range ops {
		for _, pi := range c.alternatives[o.ID] {
			clear(f)
			c.singletonRow(f, o, pi)
			cells += nonZero(f)
			n++
		}
	}
	enums, out := make([]Enumeration, len(ops)), make([]*Enumeration, len(ops))
	ptrs, vecs := make([]*Vector, n), make([]sparseVector, n)
	assign := make([]uint8, n*nOps)
	idx, val := make([]uint16, cells), make([]float64, cells)
	k := 0
	for oi, o := range ops {
		e := &enums[oi]
		e.Scope = plan.NewBitset(nOps)
		e.Scope.Set(o.ID)
		e.Boundary = c.boundaryOf(e.Scope)
		alts := c.alternatives[o.ID]
		e.Vectors = ptrs[k : k+len(alts) : k+len(alts)]
		for vi, pi := range alts {
			v := &vecs[k].Vector
			v.cells = &vecs[k].cells
			v.Assign = assign[k*nOps : (k+1)*nOps : (k+1)*nOps]
			for i := range v.Assign {
				v.Assign[i] = Unassigned
			}
			v.Assign[o.ID] = pi
			clear(f)
			c.singletonRow(f, o, pi)
			m := extractCells(f, idx, val)
			v.cells.idx, v.cells.val = idx[:m:m], val[:m:m]
			idx, val = idx[m:], val[m:]
			e.Vectors[vi] = v
			k++
			if st != nil {
				st.VectorsCreated++
			}
		}
		out[oi] = e
	}
	return out
}

// Unvectorize translates a complete plan vector back into an executable
// execution plan (operation 3), reconstructing the plan from the immutable
// LOT structure and the vector's platform assignment, from which the COT
// (conversion operators) is derived.
func (c *Context) Unvectorize(v *Vector) (*plan.Execution, error) {
	assign := make([]platform.ID, c.Plan.NumOps())
	for i, a := range v.Assign {
		if a == Unassigned {
			return nil, fmt.Errorf("core: vector does not cover operator %d", i)
		}
		assign[i] = c.Schema.Platform(int(a))
	}
	x, err := plan.NewExecution(c.Plan, assign)
	if err != nil {
		return nil, err
	}
	if err := x.Validate(c.Avail); err != nil {
		return nil, err
	}
	return x, nil
}

// ---------------------------------------------------------------------------
// Auxiliary operations (Section IV-D)
// ---------------------------------------------------------------------------

// Iterate returns the cartesian product of the two enumerations' vectors as
// ordered pairs (operation 5).
func Iterate(a, b *Enumeration) [][2]*Vector {
	out := make([][2]*Vector, 0, len(a.Vectors)*len(b.Vectors))
	for _, va := range a.Vectors {
		for _, vb := range b.Vectors {
			out = append(out, [2]*Vector{va, vb})
		}
	}
	return out
}

// MergeCtx precomputes the plan-structure information shared by every merge
// of vectors from two fixed enumerations: the dataflow edges crossing the
// two scopes and how many of them fuse pipeline segments. Conversion
// features depend on the per-pair platform choices and are computed inside
// Merge itself.
type MergeCtx struct {
	Crossing []plan.Edge
	Fuses    int
}

// MergeInfo builds the MergeCtx for concatenating enumerations a and b.
func (c *Context) MergeInfo(a, b *Enumeration) *MergeCtx {
	info := &MergeCtx{Crossing: c.crossingEdges(a.Scope, b.Scope)}
	for _, e := range info.Crossing {
		if c.linear[e.From] && c.linear[e.To] {
			info.Fuses++
		}
	}
	return info
}

// Merge concatenates two plan vectors into the vector of the combined
// subplan (operation 6). Feature blocks are added cell-wise with two
// exceptions mandated by the paper: the pipeline topology cell fuses when
// the subplans concatenate linearly ("when concatenating two pipeline
// subplans the resulted plan is still a single pipeline"), and the input
// tuple size keeps the maximum. Conversion features are added for every
// crossing edge whose endpoints run on different platforms. Merge is
// commutative and, across any merge tree over disjoint scopes, associative:
// every crossing edge is accounted exactly once.
func (c *Context) Merge(v1, v2 *Vector, info *MergeCtx, st *Stats) *Vector {
	out := &Vector{F: make([]float64, c.Schema.Len()), Assign: make([]uint8, len(v1.Assign))}
	c.mergeInto(out, v1, v2, info)
	if st != nil {
		st.Merges++
		st.VectorsCreated++
	}
	return out
}

// mergeInto is Merge writing into a pre-allocated vector (an arena row).
// out.F and out.Assign must have the schema and plan widths; every cell is
// overwritten.
func (c *Context) mergeInto(out, v1, v2 *Vector, info *MergeCtx) {
	out.Cost, out.Dist, out.scored = 0, CostDist{}, false
	mergeAssign(out.Assign, v1.Assign, v2.Assign)
	c.mergeF(out.F, v1, v2, out.Assign, info)
}

// mergeAssign writes the assignment of the concatenation of two vectors
// over disjoint scopes.
func mergeAssign(dst, a1, a2 []uint8) {
	copy(dst, a1)
	for i, a := range a2 {
		if a != Unassigned {
			dst[i] = a
		}
	}
}

// mergeF writes every feature cell of the merge of v1 and v2 into dst;
// assign is the merged assignment (mergeAssign). v1 and v2 must be dense.
func (c *Context) mergeF(dst []float64, v1, v2 *Vector, assign []uint8, info *MergeCtx) {
	s := c.Schema
	vecops.Add(dst, v1.F, v2.F)
	dst[TopoPipeline] -= float64(info.Fuses)
	// The dataset cell and the per-platform peak-bytes cells merge by max,
	// not by sum.
	d := s.DatasetCell()
	dst[d] = v1.F[d]
	if v2.F[d] > dst[d] {
		dst[d] = v2.F[d]
	}
	lo, hi := s.maxMergedRange()
	for i := lo; i < hi; i++ {
		dst[i] = v1.F[i]
		if v2.F[i] > dst[i] {
			dst[i] = v2.F[i]
		}
	}
	c.addConversions(dst, assign, info)
}

// addConversions adds the conversion features of every crossing edge whose
// endpoints run on different platforms.
func (c *Context) addConversions(dst []float64, assign []uint8, info *MergeCtx) {
	s := c.Schema
	for _, e := range info.Crossing {
		pa, pb := assign[e.From], assign[e.To]
		if pa != pb {
			card := c.convCard(e)
			dst[s.MovePlatformCell(int(pa))]++
			dst[s.MovePlatformCell(int(pb))]++
			dst[s.MoveInCardCell()] += card
			dst[s.MoveOutCardCell()] += card
		}
	}
}

// mergeCells writes into dst the merge of the sparse vectors v1 and v2: bit
// for bit what mergeF writes for their dense forms, in every cell. The
// additive cells are v1's cells plus v2's; a v1 cell that v2 lacks must read
// x + (+0), which differs from x for −0 (and a signaling NaN), so those few
// cells are redone. The max-merged cells — the peak-bytes block and the
// dataset cell, which close the vector — take the max of both sides with
// absent cells read as +0, and the fuse and conversion fix-ups follow in
// mergeF's order.
func (c *Context) mergeCells(dst []float64, v1, v2 *Vector, assign []uint8, info *MergeCtx) {
	lo, _ := c.Schema.maxMergedRange()
	c1, c2 := v1.cells, v2.cells
	k1, k2 := tailStart(c1.idx, lo), tailStart(c2.idx, lo)
	clear(dst)
	odd := false // some v1 cell x has x + 0 ≠ x
	for k, i := range c1.idx[:k1] {
		x := c1.val[k]
		dst[i] = x
		odd = odd || math.Float64bits(x+0) != math.Float64bits(x)
	}
	for k, i := range c2.idx[:k2] {
		dst[i] += c2.val[k]
	}
	if odd {
		for k, i := range c1.idx[:k1] {
			if x := c1.val[k]; math.Float64bits(x+0) != math.Float64bits(x) {
				if _, found := slices.BinarySearch(c2.idx[:k2], i); !found {
					dst[i] = x + 0
				}
			}
		}
	}
	dst[TopoPipeline] -= float64(info.Fuses)
	var rhs [maxMergedCells]float64
	for k, i := range c1.idx[k1:] {
		dst[i] = c1.val[k1+k]
	}
	for k, i := range c2.idx[k2:] {
		rhs[int(i)-lo] = c2.val[k2+k]
	}
	for i := lo; i < len(dst); i++ {
		if y := rhs[i-lo]; y > dst[i] {
			dst[i] = y
		}
	}
	c.addConversions(dst, assign, info)
}

// maxMergedCells bounds the number of max-merged cells: one peak-bytes cell
// per platform (at most 15) and the dataset cell.
const maxMergedCells = 16

// tailStart returns the position of the first index ≥ lo in the ascending
// idx: the max-merged cells close the vector, so this scans at most
// maxMergedCells entries from the end.
func tailStart(idx []uint16, lo int) int {
	k := len(idx)
	for k > 0 && int(idx[k-1]) >= lo {
		k--
	}
	return k
}

// writeFeatures writes v's feature cells into dst: a copy of a dense F, the
// cells of a sparse vector, or the merge of a lazy vector's source pair,
// which must both be sparse.
func (c *Context) writeFeatures(dst []float64, v *Vector) {
	switch {
	case v.F != nil:
		copy(dst, v.F)
	case v.merge == nil:
		clear(dst)
		for k, i := range v.cells.idx {
			dst[i] = v.cells.val[k]
		}
	default:
		c.mergeCells(dst, v.left, v.right, v.Assign, v.merge)
	}
}

// sparsify gives vs[r] the non-zero cells of row r of b, out of one
// exact-size arena, and drops any dense F. A vector without cells gets
// them allocated.
func sparsify(b *scoreBlock, vs []*Vector) {
	n := 0
	for r := range vs {
		n += nonZero(b.X.Row(r))
	}
	idx, val := make([]uint16, n), make([]float64, n)
	for r, v := range vs {
		k := extractCells(b.X.Row(r), idx, val)
		if v.cells == nil {
			v.cells = new(sparseCells)
		}
		v.F, v.cells.idx, v.cells.val = nil, idx[:k:k], val[:k:k]
		idx, val = idx[k:], val[k:]
	}
}

// nonZero counts the non-zero cells of row: the cells whose bits are not
// zero, so −0 counts.
func nonZero(row []float64) int {
	n := 0
	for _, x := range row {
		if math.Float64bits(x) != 0 {
			n++
		}
	}
	return n
}

// extractCells writes the non-zero cells of row, in ascending order, to the
// front of idx and val and returns their number.
func extractCells(row []float64, idx []uint16, val []float64) int {
	k := 0
	for i, x := range row {
		if math.Float64bits(x) != 0 {
			idx[k], val[k] = uint16(i), x
			k++
		}
	}
	return k
}

// concat builds the concatenation of a and b (their cartesian product, in
// Iterate order) as lazy vectors: each gets its merged assignment and its
// source pair, but no features (see Vector). The vectors of a and b must be
// sparse. The assignments share one block. Cancellation is checked every
// mergeBlock vectors.
func (c *Context) concat(ctx context.Context, a, b *Enumeration, workers int) (*Enumeration, error) {
	left, right := a.Vectors, b.Vectors
	n, nr := len(left)*len(right), len(right)
	info := c.MergeInfo(a, b)
	e := &Enumeration{Scope: a.Scope.Union(b.Scope), Vectors: make([]*Vector, n)}
	vecs := make([]Vector, n)
	nOps := c.Plan.NumOps()
	assign := make([]uint8, n*nOps)
	err := parallelForCtx(ctx, n, workers, mergeBlock, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := &vecs[i]
			v.left, v.right, v.merge = left[i/nr], right[i%nr], info
			v.Assign = assign[i*nOps : (i+1)*nOps : (i+1)*nOps]
			mergeAssign(v.Assign, v.left.Assign, v.right.Assign)
			e.Vectors[i] = v
		}
	})
	if err != nil {
		return nil, err
	}
	e.Boundary = c.boundaryOf(e.Scope)
	return e, nil
}

// materialize replaces every vector of e by a sparse copy (see Vector) with
// the same assignment and scores: the survivors of a prune no longer pin the
// concatenation's assignment block, nor (through their source pairs) the
// enumerations it was built from. Rows are written pruneBlock at a time
// into a pooled scoring block, and each block's cells go into one
// exact-size arena.
func (c *Context) materialize(e *Enumeration, workers int) {
	n := len(e.Vectors)
	cols, nOps := c.Schema.Len(), c.Plan.NumOps()
	vecs := make([]sparseVector, n)
	assign := make([]uint8, n*nOps)
	parallelFor(n, workers, func(lo, hi int) {
		b := getScoreBlock(cols)
		defer scoreBlocks.Put(b)
		for blo := lo; blo < hi; blo += pruneBlock {
			bhi := min(blo+pruneBlock, hi)
			for i := blo; i < bhi; i++ {
				src, v := e.Vectors[i], &vecs[i].Vector
				v.cells = &vecs[i].cells
				c.writeFeatures(b.X.Row(i-blo), src)
				v.Cost, v.Dist, v.scored = src.Cost, src.Dist, src.scored
				v.Assign = assign[i*nOps : (i+1)*nOps : (i+1)*nOps]
				copy(v.Assign, src.Assign)
				e.Vectors[i] = v
			}
			sparsify(b, e.Vectors[blo:bhi])
		}
	})
}

// densify gives every vector of e a dense F, in one block: the final
// enumeration's vectors are handed to callers that read F.
func (c *Context) densify(e *Enumeration) {
	cols := c.Schema.Len()
	f := make([]float64, len(e.Vectors)*cols)
	for i, v := range e.Vectors {
		if v.F != nil {
			continue
		}
		row := f[i*cols : (i+1)*cols : (i+1)*cols]
		c.writeFeatures(row, v)
		v.F, v.cells = row, nil
		v.left, v.right, v.merge = nil, nil, nil
	}
}

// ---------------------------------------------------------------------------
// Prune operation (Section IV-E)
// ---------------------------------------------------------------------------

// Pruner reduces a plan vector enumeration in place (operation 7). Distinct
// pruning policies (the boundary pruning of the optimizer, the
// platform-switch pruning of TDGen) implement this interface, which is how
// the paper's "fine-granular operations" let the same Algorithm 1 serve both
// uses.
//
// The enumeration handed to Prune is a fresh concatenation of lazy vectors
// (see Vector): a pruner decides from Assign, from Context.Switches and from
// the costs predictEnum sets, never from F.
//
// ctx carries the run's cancellation: pruners that invoke the cost oracle
// must check it cooperatively (model calls dominate enumeration latency) and
// may return early with the enumeration unpruned when cancelled — the
// enumeration loop re-checks ctx right after every Prune call and abandons
// the run. A nil ctx must be tolerated and means "not cancellable".
type Pruner interface {
	Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats)
}

// BoundaryPruner implements the lossless boundary pruning of Definition 2:
// among the vectors of an enumeration that employ the same platforms for all
// boundary operators (equal pruning footprints), only the one with the
// lowest predicted cost survives. It reduces the pipeline search space from
// O(k^n) to O(n·k²) (Lemma 1) and never discards a subplan contained in the
// optimal plan.
type BoundaryPruner struct {
	Model CostModel
}

// Prune applies boundary pruning to e using the model as the cost oracle.
// The whole enumeration is scored with one batched model invocation
// (vectors already scored in this run excepted; see predictEnum) and
// survivors carry their predicted cost in Vector.Cost. A cancelled ctx returns early without pruning; the caller
// is expected to abandon the enumeration.
func (p BoundaryPruner) Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats) {
	if len(e.Vectors) == 0 {
		return
	}
	if !c.predictEnum(ctx, p.Model, e, st) {
		return
	}
	if c.Risk.KeepOverlap {
		riskDedup(c, e, st, c.curRec, nil)
		return
	}
	dedupFootprint(e, st, c.curRec)
}

// dedupFootprint keeps, per pruning footprint, only the cheapest vector
// (costs must already be set). It is the lossless half of boundary pruning,
// shared by BoundaryPruner and the batch ablation benchmark. rec, when
// non-nil, receives the pruning audit (which discarded vector was the best
// pruned alternative); untraced runs pass nil and pay nothing.
func dedupFootprint(e *Enumeration, st *Stats, rec *PruneRecord) {
	if len(e.Vectors) <= 1 {
		return
	}
	type slot struct{ idx int }
	byKey := make(map[uint64]slot)
	var byStr map[string]slot
	kept := e.Vectors[:0]
	for _, v := range e.Vectors {
		key, skey, packed := footprintKey(v.Assign, e.Boundary)
		if packed {
			if s, ok := byKey[key]; ok {
				discarded := v
				if v.Cost < kept[s.idx].Cost {
					discarded = kept[s.idx]
					kept[s.idx] = v
				}
				if st != nil {
					st.Pruned++
				}
				rec.observeDiscard(discarded, s.idx)
				continue
			}
			byKey[key] = slot{idx: len(kept)}
		} else {
			if byStr == nil {
				byStr = make(map[string]slot)
			}
			if s, ok := byStr[skey]; ok {
				discarded := v
				if v.Cost < kept[s.idx].Cost {
					discarded = kept[s.idx]
					kept[s.idx] = v
				}
				if st != nil {
					st.Pruned++
				}
				rec.observeDiscard(discarded, s.idx)
				continue
			}
			byStr[skey] = slot{idx: len(kept)}
		}
		kept = append(kept, v)
	}
	e.Vectors = kept
}

// SwitchPruner implements TDGen's pruning heuristic (Section VI-A): discard
// plans with more than Beta platform switches ("very unlikely to be an
// optimal execution plan in practice") and, when MaxVectors > 0, keep at
// most that many vectors, preferring fewer switches; ties resolve by
// insertion order to stay deterministic.
type SwitchPruner struct {
	Beta       int
	MaxVectors int
}

// Prune applies the platform-switch pruning to e. It never invokes a cost
// oracle, so ctx is unused.
func (p SwitchPruner) Prune(_ context.Context, c *Context, e *Enumeration, st *Stats) {
	type counted struct {
		v        *Vector
		switches int
	}
	kept := make([]counted, 0, len(e.Vectors))
	for _, v := range e.Vectors {
		if sw := c.Switches(v.Assign); sw <= p.Beta {
			kept = append(kept, counted{v, sw})
		} else if st != nil {
			st.Pruned++
		}
	}
	if p.MaxVectors > 0 && len(kept) > p.MaxVectors {
		sort.SliceStable(kept, func(i, j int) bool { return kept[i].switches < kept[j].switches })
		if st != nil {
			st.Pruned += len(kept) - p.MaxVectors
		}
		kept = kept[:p.MaxVectors]
	}
	e.Vectors = e.Vectors[:len(kept)]
	for i, k := range kept {
		e.Vectors[i] = k.v
	}
}

// Switches counts the platform switches of an assignment: the dataflow
// edges whose endpoints are both assigned and run on different platforms.
// It equals Schema.Conversions of the vector's features, without needing
// them.
func (c *Context) Switches(assign []uint8) int {
	n := 0
	for _, e := range c.edges {
		pa, pb := assign[e.From], assign[e.To]
		if pa != pb && pa != Unassigned && pb != Unassigned {
			n++
		}
	}
	return n
}

// NoPruner keeps every vector (the exhaustive enumeration of Figure 9a).
type NoPruner struct{}

// Prune is a no-op.
func (NoPruner) Prune(context.Context, *Context, *Enumeration, *Stats) {}

// GetOptimal predicts the runtime of every vector in e and returns the one
// with the lowest prediction (Algorithm 1, line 18). Ties resolve to the
// earliest vector for determinism. Prediction goes through the same batched
// helper as the pruners (after a pruned run, every survivor is already
// scored, so the final selection costs no model work at all). A nil return means
// the enumeration was empty or ctx was cancelled mid-batch; the caller
// distinguishes the two via ctx.Err().
func (c *Context) GetOptimal(ctx context.Context, e *Enumeration, m CostModel, st *Stats) *Vector {
	if len(e.Vectors) == 0 {
		return nil
	}
	if !c.predictEnum(ctx, m, e, st) {
		return nil
	}
	best := e.Vectors[0]
	for _, v := range e.Vectors[1:] {
		if v.Cost < best.Cost {
			best = v
		}
	}
	return best
}

// VectorizeExecution computes, in one pass, the plan vector of a complete
// execution plan given its per-operator platform columns. It is
// definitionally equal to merging all singleton vectors (property-tested)
// and is what the Rheem-ML baseline must do from scratch on every model
// invocation — the overhead Robopt's design eliminates.
func (c *Context) VectorizeExecution(assign []uint8) *Vector {
	s := c.Schema
	v := &Vector{F: make([]float64, s.Len()), Assign: append([]uint8(nil), assign...)}
	for _, o := range c.Plan.Ops {
		c.addSingletonStructure(v.F, o)
		c.addPlatformChoice(v.F, o, int(assign[o.ID]))
	}
	v.F[TopoPipeline] -= float64(c.totalFuses())
	for _, e := range c.edges {
		pa, pb := assign[e.From], assign[e.To]
		if pa != pb {
			card := c.convCard(e)
			v.F[s.MovePlatformCell(int(pa))]++
			v.F[s.MovePlatformCell(int(pb))]++
			v.F[s.MoveInCardCell()] += card
			v.F[s.MoveOutCardCell()] += card
		}
	}
	v.F[s.DatasetCell()] = c.Plan.AvgTupleBytes
	return v
}
