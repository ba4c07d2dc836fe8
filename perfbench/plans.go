package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/platform"
	"repro/internal/workload"
)

// item is one distinct request a workload sends: a plan body and its risk
// weight, plus the in-process reference answer filled in before timing.
type item struct {
	body   []byte
	plan   *plan.Logical
	lambda float64
	ref    reference
}

// riskLambda is the risk weight of fleet-mix's risk-aware requests.
const riskLambda = 0.5

// planStream draws the plans of one workload from its seed. The stream is
// stratified so every seed gets the same family mix and nearly the same
// spread of plan sizes and input sizes, which keeps per-seed latency and
// plan-quality figures comparable: plan i cycles through the paper's Table
// II catalog, a synthetic pipeline, a join tree and a random DAG of 5 to
// maxOps operators, and its operator count and input size are points of a
// Kronecker sequence with seeded offsets, which covers its range evenly in
// any prefix. The seed also picks the random DAG shapes and jitters every
// non-source selectivity by up to 10%, so plans of one stream get distinct
// plan-cache fingerprints even when their shape and banded input size
// coincide.
type planStream struct {
	rng      *rand.Rand
	offOps   float64
	offBytes float64
	maxOps   int
	next     int
	catalog  []workload.Query
}

func newPlanStream(rng *rand.Rand, maxOps int) *planStream {
	s := &planStream{rng: rng, offOps: rng.Float64(), offBytes: rng.Float64(), maxOps: maxOps}
	for _, q := range workload.Catalog() {
		if q.Operators <= maxOps {
			s.catalog = append(s.catalog, q)
		}
	}
	return s
}

// Irrational steps of the two Kronecker sequences (the golden ratio's and
// the silver ratio's fractional parts), so the dimensions do not align.
const (
	stepOps   = 0.6180339887498949
	stepBytes = 0.4142135623730951
)

func (s *planStream) plan() *plan.Logical {
	i := s.next
	s.next++
	j := float64(i / 4)
	uOps := math.Mod(s.offOps+j*stepOps, 1)
	uBytes := math.Mod(s.offBytes+j*stepBytes, 1)
	ops := 5 + int(float64(s.maxOps-4)*uOps)
	var l *plan.Logical
	switch i % 4 {
	case 0:
		q := s.catalog[(i/4)%len(s.catalog)]
		l = q.Build(logScale(q.MinBytes, q.MaxBytes, uBytes))
	case 1:
		l = workload.Pipeline(ops, logScale(1e8, 1e12, uBytes))
	case 2:
		// 4·joins+6 operators: 10 up to maxOps.
		l = workload.JoinTree(1+int(float64((s.maxOps-6)/4)*uOps), logScale(1e8, 1e12, uBytes))
	default:
		l = workload.RandomDAG(ops, logScale(1e8, 1e12, uBytes), s.rng.Int63())
	}
	for _, op := range l.Ops {
		if len(op.In) > 0 {
			op.Selectivity *= 1 - 0.1*s.rng.Float64()
		}
	}
	return l
}

// logScale maps u in [0, 1) onto [lo, hi) evenly in log space.
func logScale(lo, hi, u float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// newItem encodes l as the compact JSON body a client would POST and keeps
// the server's view of it: the plan decoded back from that body.
func newItem(l *plan.Logical, lambda float64) (item, error) {
	pretty, err := plan.MarshalJSONPlan(l)
	if err != nil {
		return item{}, err
	}
	var body bytes.Buffer
	if err := json.Compact(&body, pretty); err != nil {
		return item{}, err
	}
	decoded, err := plan.UnmarshalJSONPlan(bytes.NewReader(body.Bytes()))
	if err != nil {
		return item{}, fmt.Errorf("generated plan does not decode: %w", err)
	}
	return item{body: body.Bytes(), plan: decoded, lambda: lambda}, nil
}

// requireDistinct fails unless every item has its own plan-cache key
// (fingerprint and risk band). Two items sharing a key would be served one
// cached plan, so a workload meant to miss would hit, and a response could
// legitimately differ from its own item's reference.
func requireDistinct(items []item, plats []platform.ID, avail *platform.Availability) error {
	seen := make(map[string]int, len(items))
	for i, it := range items {
		fp, _, err := plancache.Compute(it.plan, plats, avail, plancache.DefaultCardBands)
		if err != nil {
			return fmt.Errorf("item %d: fingerprint: %w", i, err)
		}
		key := fp.String() + "/" + plancache.RiskBand(it.lambda)
		if j, dup := seen[key]; dup {
			return fmt.Errorf("items %d and %d share plan-cache key %s", j, i, key)
		}
		seen[key] = i
	}
	return nil
}
