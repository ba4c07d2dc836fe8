package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/workload"
)

// denseCopy returns v's features as a dense row.
func denseCopy(c *Context, v *Vector) []float64 {
	row := make([]float64, c.Schema.Len())
	c.writeFeatures(row, v)
	return row
}

// sameBits reports the first cell where a and b differ in their bits.
func sameBits(a, b []float64) error {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return fmt.Errorf("cell %d: %v (%#x), want %v (%#x)", i, a[i], math.Float64bits(a[i]), b[i], math.Float64bits(b[i]))
		}
	}
	return nil
}

// checkLazyRows compares every lazy vector of e, written into a scoring row
// from its sparse sources, with mergeF over the densified sources.
func checkLazyRows(c *Context, e *Enumeration) error {
	got := make([]float64, c.Schema.Len())
	want := make([]float64, c.Schema.Len())
	for i, v := range e.Vectors {
		l := &Vector{F: denseCopy(c, v.left)}
		r := &Vector{F: denseCopy(c, v.right)}
		c.mergeF(want, l, r, v.Assign, v.merge)
		c.writeFeatures(got, v)
		if err := sameBits(got, want); err != nil {
			return fmt.Errorf("vector %d: %v", i, err)
		}
	}
	return nil
}

// TestSparseMergeParity is the bit-parity property of sparse survivors:
// every scoring row the enumeration merges from sparse sources equals
// mergeF over the densified sources, in every cell, and a vector made
// sparse densifies back to the row it was made from. Part one walks random
// DAG plans, concatenating enumerations in random order and keeping random
// survivors; part two merges crafted rows holding −0, NaN (quiet and
// signaling), ±Inf and negative values in the max-merged cells.
func TestSparseMergeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for p := 0; p < 12; p++ {
		nPlats := 2 + p%4
		l := workload.RandomDAG(4+rng.Intn(14), 1e6*float64(1+rng.Intn(1000)), rng.Int63())
		c, err := NewContext(l, platform.Subset(nPlats), platform.UniformAvailability(nPlats))
		if err != nil {
			t.Fatal(err)
		}
		enums := c.sparseSingletons(nil)
		for _, o := range l.Ops {
			dense := c.enumerateSingleton(o.ID, nil)
			for i, v := range enums[o.ID].Vectors {
				if err := sameBits(denseCopy(c, v), dense.Vectors[i].F); err != nil {
					t.Fatalf("plan %d singleton %d/%d: %v", p, o.ID, i, err)
				}
			}
		}
		for len(enums) > 1 {
			i := rng.Intn(len(enums))
			j := (i + 1 + rng.Intn(len(enums)-1)) % len(enums)
			e, err := c.concat(context.Background(), enums[i], enums[j], 1+rng.Intn(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := checkLazyRows(c, e); err != nil {
				t.Fatalf("plan %d: %v", p, err)
			}
			rng.Shuffle(len(e.Vectors), func(a, b int) { e.Vectors[a], e.Vectors[b] = e.Vectors[b], e.Vectors[a] })
			e.Vectors = e.Vectors[:min(len(e.Vectors), 1+rng.Intn(40))]
			rows := make([][]float64, len(e.Vectors))
			for k, v := range e.Vectors {
				rows[k] = denseCopy(c, v)
			}
			c.materialize(e, 1+rng.Intn(3))
			for k, v := range e.Vectors {
				if err := sameBits(denseCopy(c, v), rows[k]); err != nil {
					t.Fatalf("plan %d survivor %d: %v", p, k, err)
				}
			}
			last := len(enums) - 1
			enums[i] = e
			enums[j] = enums[last]
			enums = enums[:last]
		}
	}

	// Crafted rows: the merge context of a real plan, source rows drawn
	// from special values. Every max-merged cell is set on some rows, to
	// negative values among others.
	l := workload.RandomDAG(10, 1e7, 3)
	c, err := NewContext(l, platform.Subset(4), platform.UniformAvailability(4))
	if err != nil {
		t.Fatal(err)
	}
	singles := c.sparseSingletons(nil)
	left, right := singles[0], singles[l.Ops[0].Out[0]]
	info := c.MergeInfo(left, right)
	snan := math.Float64frombits(0x7ff0000000000001)
	special := []float64{math.Copysign(0, -1), math.NaN(), snan, math.Inf(1), math.Inf(-1), -3, -0.5, 2, 1e300, -1e300}
	cols := c.Schema.Len()
	lo, _ := c.Schema.maxMergedRange()
	craft := func() *Vector {
		row := make([]float64, cols)
		for n := rng.Intn(60); n > 0; n-- {
			i := rng.Intn(cols)
			if rng.Intn(3) == 0 {
				i = lo + rng.Intn(cols-lo)
			}
			row[i] = special[rng.Intn(len(special))]
		}
		return &Vector{F: row}
	}
	b := getScoreBlock(cols)
	defer scoreBlocks.Put(b)
	for trial := 0; trial < 500; trial++ {
		vs := []*Vector{craft(), craft()}
		if trial%5 == 0 {
			// Both sources hold −0 in the same cells.
			for i := range vs[0].F {
				if rng.Intn(4) == 0 {
					vs[0].F[i], vs[1].F[i] = special[0], special[0]
				}
			}
		}
		dense := []*Vector{{F: vs[0].F}, {F: vs[1].F}}
		for r, v := range vs {
			copy(b.X.Row(r), v.F)
		}
		sparsify(b, vs)
		for r, v := range vs {
			if err := sameBits(denseCopy(c, v), dense[r].F); err != nil {
				t.Fatalf("trial %d: sparse row %d: %v", trial, r, err)
			}
		}
		assign := make([]uint8, l.NumOps())
		mergeAssign(assign, left.Vectors[rng.Intn(len(left.Vectors))].Assign, right.Vectors[rng.Intn(len(right.Vectors))].Assign)
		lazy := &Enumeration{Vectors: []*Vector{{Assign: assign, left: vs[0], right: vs[1], merge: info}}}
		if err := checkLazyRows(c, lazy); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
