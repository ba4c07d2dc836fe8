package core

import (
	"fmt"
	"strings"

	"repro/internal/plan"
)

// Unassigned marks an operator without a platform choice in a vector's
// assignment array (the -1 of the paper's abstract plan vectors).
const Unassigned uint8 = 0xFF

// Vector is a plan vector: the flat feature representation of an execution
// (sub)plan (Section IV-A, Fig. 5). F holds the feature cells laid out by a
// Schema. Assign records, per logical operator, the chosen platform column
// (or Unassigned for operators outside the vector's scope); it is the
// compact stand-in for the per-plan COT and the source of the pruning
// footprint.
//
// Inside EnumerateFull, vectors do not keep a dense F. A vector built by a
// concatenation starts out lazy: it keeps only its assignment and the
// source pair it merges, because pruning discards most of every
// concatenation. Its features are merged into a scoring block just before
// the model sees them. If it survives the prune it becomes sparse: it keeps
// only its non-zero cells (see runTask), as the singletons the enumeration
// starts from do. Only the final enumeration is made dense again. Pruners
// and properties must therefore not read F; they read Assign, Cost and
// Context.Switches.
type Vector struct {
	F      []float64
	Assign []uint8

	// Cost caches the vector's latest selection score (set by Prune and
	// GetOptimal): the model's runtime prediction, risk-adjusted to
	// mean + λ·spread when the run's Risk.Lambda is nonzero.
	Cost float64

	// Dist is the predictive distribution behind Cost. On point-estimate
	// runs it degenerates to Lo = Hi = Mean with zero Spread.
	Dist CostDist

	// scored reports that Cost and Dist already hold the run model's
	// prediction, so predictEnum serves the vector without a model call
	// (Stats.MemoHits).
	scored bool

	// cells are the non-zero feature cells of a sparse vector (F nil,
	// merge nil).
	cells *sparseCells

	// left and right are the sparse source pair of a lazy vector, merged
	// under merge; all three are nil otherwise.
	left, right *Vector
	merge       *MergeCtx
}

// sparseCells are the non-zero cells of a sparse vector: ascending cell
// indices and their values, "non-zero" meaning non-zero bits, so −0 is
// kept. They sit behind a pointer so that the many lazy vectors of a
// concatenation do not carry two slice headers they never use.
type sparseCells struct {
	idx []uint16
	val []float64
}

// sparseVector allocates a sparse vector together with its cells.
type sparseVector struct {
	Vector
	cells sparseCells
}

// Clone returns a deep copy of v.
func (v *Vector) Clone() *Vector {
	out := *v
	out.F = append([]float64(nil), v.F...)
	out.Assign = append([]uint8(nil), v.Assign...)
	if v.cells != nil {
		out.cells = &sparseCells{
			idx: append([]uint16(nil), v.cells.idx...),
			val: append([]float64(nil), v.cells.val...),
		}
	}
	return &out
}

// Covers reports whether the vector assigns a platform to operator id.
func (v *Vector) Covers(id plan.OpID) bool { return v.Assign[id] != Unassigned }

// Scope returns the set of operators the vector covers.
func (v *Vector) Scope(n int) plan.Bitset {
	b := plan.NewBitset(n)
	for i, a := range v.Assign {
		if a != Unassigned {
			b.Set(plan.OpID(i))
		}
	}
	return b
}

// String renders the topology cells and assignment compactly for debugging.
func (v *Vector) String() string {
	var sb strings.Builder
	switch {
	case v.F != nil:
		fmt.Fprintf(&sb, "vec[topo=%.0f,%.0f,%.0f,%.0f cost=%.3g assign=", v.F[0], v.F[1], v.F[2], v.F[3], v.Cost)
	case v.merge != nil:
		fmt.Fprintf(&sb, "vec[lazy cost=%.3g assign=", v.Cost)
	default:
		fmt.Fprintf(&sb, "vec[sparse cells=%d cost=%.3g assign=", len(v.cells.idx), v.Cost)
	}
	for i, a := range v.Assign {
		if a == Unassigned {
			sb.WriteByte('.')
		} else {
			fmt.Fprintf(&sb, "%d", a)
		}
		if i < len(v.Assign)-1 && (i+1)%8 == 0 {
			sb.WriteByte(' ')
		}
	}
	sb.WriteByte(']')
	return sb.String()
}

// Abstract is an abstract plan vector: the output of Vectorize (Section
// IV-C(1)). It fixes the plan-structure features but leaves the per-platform
// instantiation open, marking alternative cells with -1.
type Abstract struct {
	F     []float64
	Scope plan.Bitset
}

// Clone returns a deep copy of a.
func (a *Abstract) Clone() *Abstract {
	return &Abstract{F: append([]float64(nil), a.F...), Scope: a.Scope.Clone()}
}

// footprintKey computes the pruning-footprint key of an assignment over the
// given boundary operators (Section IV-E, Fig. 7). Two vectors in the same
// enumeration have equal keys iff they employ the same platform for every
// boundary operator. Up to 16 boundary operators pack into a uint64 (4 bits
// per operator, at most 15 platforms); larger boundaries fall back to a
// string key. The bool result reports whether the uint64 key is valid.
func footprintKey(assign []uint8, boundary []plan.OpID) (uint64, string, bool) {
	if len(boundary) <= 16 {
		var key uint64
		for _, id := range boundary {
			key = key<<4 | uint64(assign[id]&0xF)
		}
		return key, "", true
	}
	var sb strings.Builder
	sb.Grow(len(boundary))
	for _, id := range boundary {
		sb.WriteByte(assign[id])
	}
	return 0, sb.String(), false
}
