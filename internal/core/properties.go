package core

import "context"

// Property is an "interesting property" in the System-R sense, adapted to
// plan vectors. Section V of the paper points out that the boundary pruning
// is an instance of interesting sites in distributed query optimization and
// that "one can easily extend the enumeration algorithm to account for other
// interesting properties by simply modifying the prune operation" — this is
// that extension point. Two plan vectors with different property keys are
// incomparable: pruning never discards one in favour of the other, so a
// cheapest plan per property value survives to the final enumeration.
type Property interface {
	// Name identifies the property in diagnostics.
	Name() string
	// Key returns the property fingerprint of v. Equal keys mean the
	// vectors are comparable with respect to this property. v may be lazy
	// (see Vector): Key reads Assign, not F.
	Key(c *Context, v *Vector) uint64
}

// SwitchCountProperty keeps the cheapest plan per number of platform
// switches. Useful when data movement reliability matters beyond runtime:
// the final enumeration retains a low-switch alternative even if a plan with
// more movement is predicted faster.
type SwitchCountProperty struct{}

// Name implements Property.
func (SwitchCountProperty) Name() string { return "switch-count" }

// Key implements Property.
func (SwitchCountProperty) Key(c *Context, v *Vector) uint64 {
	return uint64(c.Switches(v.Assign))
}

// PlatformSetProperty keeps the cheapest plan per set of platforms used.
// Useful for pricing or availability constraints evaluated after
// enumeration ("the model m can even be a pricing catalogue", Section IV-E):
// every distinct platform combination survives with its best plan.
type PlatformSetProperty struct{}

// Name implements Property.
func (PlatformSetProperty) Name() string { return "platform-set" }

// Key implements Property.
func (PlatformSetProperty) Key(c *Context, v *Vector) uint64 {
	var mask uint64
	for _, a := range v.Assign {
		if a != Unassigned {
			mask |= 1 << a
		}
	}
	return mask
}

// LoopPlatformProperty keeps the cheapest plan per assignment of loop-region
// operators: iterative state placement often dominates runtime, so keeping
// one representative per loop placement hedges against model error there.
type LoopPlatformProperty struct{}

// Name implements Property.
func (LoopPlatformProperty) Name() string { return "loop-platforms" }

// Key implements Property.
func (LoopPlatformProperty) Key(c *Context, v *Vector) uint64 {
	var mask uint64
	for _, o := range c.Plan.Ops {
		if o.LoopID != 0 && v.Assign[o.ID] != Unassigned {
			mask |= 1 << v.Assign[o.ID]
		}
	}
	return mask
}

// PropertyPruner applies boundary pruning refined by additional interesting
// properties: within one enumeration, a vector is discarded only if another
// vector has the same pruning footprint AND the same key for every property,
// at lower predicted cost. With no properties it degenerates to
// BoundaryPruner; each added property retains more alternatives (trading
// enumeration size for post-hoc choice).
type PropertyPruner struct {
	Model      CostModel
	Properties []Property
}

// Prune implements Pruner. It scores the enumeration through the same
// batched helper as BoundaryPruner (so the two produce identical Stats on
// identical inputs) and, like it, returns early without pruning when
// cancelled.
func (p PropertyPruner) Prune(ctx context.Context, c *Context, e *Enumeration, st *Stats) {
	if len(e.Vectors) == 0 {
		return
	}
	if !c.predictEnum(ctx, p.Model, e, st) {
		return
	}
	if c.Risk.KeepOverlap {
		riskDedup(c, e, st, c.curRec, p.Properties)
		return
	}
	if len(e.Vectors) == 1 {
		return
	}
	type groupKey struct {
		foot  uint64
		sfoot string
		prop  uint64
	}
	best := map[groupKey]int{}
	kept := e.Vectors[:0]
	for _, v := range e.Vectors {
		foot, sfoot, _ := footprintKey(v.Assign, e.Boundary)
		var prop uint64
		for _, pr := range p.Properties {
			// Mix the property keys order-sensitively.
			prop = prop*0x9e3779b97f4a7c15 + pr.Key(c, v) + 0x7f4a7c15
		}
		k := groupKey{foot: foot, sfoot: sfoot, prop: prop}
		if j, ok := best[k]; ok {
			discarded := v
			if v.Cost < kept[j].Cost {
				discarded = kept[j]
				kept[j] = v
			}
			if st != nil {
				st.Pruned++
			}
			c.curRec.observeDiscard(discarded, j)
			continue
		}
		best[k] = len(kept)
		kept = append(kept, v)
	}
	e.Vectors = kept
}
