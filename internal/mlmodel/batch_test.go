package mlmodel_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// batchTarget is a mildly nonlinear regression target exercising splits and
// interactions in the tree families.
func batchTarget(x []float64) float64 {
	return 3*x[0] + x[1]*x[2] + math.Abs(x[3]-5) + 0.5*x[4]
}

// TestBatchScalarParity is the cross-family batch/scalar parity property:
// for every model family, PredictBatch on a random matrix must equal per-row
// Predict bit for bit, including the empty and single-row batches. The
// batch implementations mirror the scalar arithmetic operation for
// operation.
func TestBatchScalarParity(t *testing.T) {
	const nf = 8
	d := synthDataset(250, nf, 11, batchTarget, 0.1)

	fit := func(name string, tr mlmodel.Trainer) mlmodel.Model {
		t.Helper()
		m, err := tr.Fit(d)
		if err != nil {
			t.Fatalf("fit %s: %v", name, err)
		}
		return m
	}
	gbm := fit("gbm", mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 25, MaxDepth: 3, Seed: 5}})
	linear := fit("linear", mlmodel.LinearTrainer{})
	families := []struct {
		name string
		m    mlmodel.Model
	}{
		{"Forest", fit("forest", mlmodel.ForestTrainer{Config: mlmodel.ForestConfig{Trees: 15, Seed: 3}})},
		{"GBM", gbm},
		{"Linear", linear},
		{"MLP", fit("mlp", mlmodel.MLPTrainer{Config: mlmodel.MLPConfig{Hidden: 8, Epochs: 10, Seed: 7}})},
		{"Ensemble", mlmodel.Ensemble{Models: []mlmodel.Model{gbm, linear}}},
		{"LogTarget", fit("logtarget", mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 10, MaxDepth: 3, Seed: 9}}})},
	}

	rng := rand.New(rand.NewSource(42))
	for _, fam := range families {
		bm, ok := fam.m.(mlmodel.BatchModel)
		if !ok {
			t.Errorf("%s does not implement BatchModel natively", fam.name)
			continue
		}
		for _, rows := range []int{0, 1, 5, 33, 128} {
			X := vecops.NewMatrix(rows, nf)
			for i := range X.Data {
				X.Data[i] = rng.Float64() * 10
			}
			out := make([]float64, rows)
			bm.PredictBatch(X, out)
			for i := 0; i < rows; i++ {
				want := fam.m.Predict(X.Row(i))
				if math.Float64bits(out[i]) != math.Float64bits(want) || math.IsNaN(out[i]) {
					t.Fatalf("%s rows=%d row %d: PredictBatch=%v Predict=%v",
						fam.name, rows, i, out[i], want)
				}
			}
		}
	}
}

// scalarOnly is a third-party model implementing only the scalar interface.
type scalarOnly struct{}

func (scalarOnly) Predict(x []float64) float64 { return 2*x[0] + 1 }

// TestBatcherAdapter: Batcher returns native BatchModels unchanged and
// wraps scalar-only models with an equivalent per-row loop.
func TestBatcherAdapter(t *testing.T) {
	lin := &mlmodel.Linear{Weights: []float64{1, 2}, Intercept: 3}
	if bm := mlmodel.Batcher(lin); bm != mlmodel.BatchModel(lin) {
		t.Error("Batcher re-wrapped a native BatchModel")
	}
	bm := mlmodel.Batcher(scalarOnly{})
	X := vecops.MatrixFromRows([][]float64{{1, 0}, {2, 0}, {-3, 0}}, 2)
	out := make([]float64, X.Rows)
	bm.PredictBatch(X, out)
	for i := 0; i < X.Rows; i++ {
		if want := (scalarOnly{}).Predict(X.Row(i)); out[i] != want {
			t.Fatalf("row %d: adapter=%v scalar=%v", i, out[i], want)
		}
	}
	if got := bm.Predict([]float64{4, 0}); got != 9 {
		t.Fatalf("adapter Predict = %v, want 9", got)
	}
}

// TestEnsembleEmptyBatch: the zero-member ensemble predicts 0 on both paths.
func TestEnsembleEmptyBatch(t *testing.T) {
	e := mlmodel.Ensemble{}
	X := vecops.NewMatrix(3, 2)
	out := []float64{7, 7, 7}
	e.PredictBatch(X, out)
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %v, want 0", i, v)
		}
	}
}

// TestEnsembleBatchAllocFree pins the steady-state model path at zero heap
// allocations: an ensemble of log-target GBMs — the serving model's shape —
// scoring 16 rows (one enumeration scoring block) and a 40-row matrix that
// spans several member chunks, on both the point and the distributional
// path.
func TestEnsembleBatchAllocFree(t *testing.T) {
	const nf = 8
	d := synthDataset(250, nf, 13, batchTarget, 0.1)
	var e mlmodel.Ensemble
	for s := int64(0); s < 2; s++ {
		m, err := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 20, MaxDepth: 4, Seed: 21 + s}}}.Fit(d)
		if err != nil {
			t.Fatal(err)
		}
		e.Models = append(e.Models, m)
	}
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{16, 40} {
		X := vecops.NewMatrix(rows, nf)
		for i := range X.Data {
			X.Data[i] = rng.Float64() * 10
		}
		mean, spread := make([]float64, rows), make([]float64, rows)
		lo, hi := make([]float64, rows), make([]float64, rows)
		if a := testing.AllocsPerRun(50, func() { e.PredictBatch(X, mean) }); a != 0 {
			t.Errorf("rows=%d: PredictBatch allocates %.1f times per call", rows, a)
		}
		if a := testing.AllocsPerRun(50, func() { e.PredictBatchDist(X, mean, spread, lo, hi) }); a != 0 {
			t.Errorf("rows=%d: PredictBatchDist allocates %.1f times per call", rows, a)
		}
	}
}
