package mlmodel_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// planWidth is the width of the optimizer's plan vectors over all five
// platforms, the input the serving model scores.
const planWidth = 543

// sparsePlanRows draws n rows shaped like plan vectors: about 40 of the 543
// cells are set, some to counts and some to cardinalities spanning six
// orders of magnitude; the rest are zero.
func sparsePlanRows(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		x := make([]float64, planWidth)
		for k := 0; k < 40; k++ {
			f := rng.Intn(planWidth)
			if f%3 == 0 {
				x[f] = float64(1 + rng.Intn(4))
			} else {
				x[f] = math.Exp(rng.Float64() * 14)
			}
		}
		rows[i] = x
	}
	return rows
}

// sparsePlanTarget is a runtime-like target: a sum of per-feature costs
// with one platform-switch interaction.
func sparsePlanTarget(x []float64) float64 {
	y := 1.0
	for f, v := range x {
		y += v * float64(f%7+1) * 1e-4
	}
	if x[5] > 0 && x[11] > 0 {
		y *= 3
	}
	return y
}

func sparsePlanDataset(n int, seed int64) *mlmodel.Dataset {
	d := &mlmodel.Dataset{}
	for _, x := range sparsePlanRows(n, seed) {
		d.Append(x, sparsePlanTarget(x))
	}
	return d
}

// kernelModels caches the benchmark models: fitting them takes seconds.
var kernelModels struct {
	once   sync.Once
	models map[string]mlmodel.Model
	X      *vecops.Matrix
}

func kernelBenchModels() (map[string]mlmodel.Model, *vecops.Matrix) {
	kernelModels.once.Do(func() {
		logGBMEnsemble := func(trees, depth int) mlmodel.Model {
			var e mlmodel.Ensemble
			for m := int64(0); m < 2; m++ {
				tr := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{
					Trees: trees, MaxDepth: depth, Seed: 11 + m, Parallel: true,
				}}}
				mm, err := tr.Fit(sparsePlanDataset(2000, 100+m))
				if err != nil {
					panic(err)
				}
				e.Models = append(e.Models, mm)
			}
			return e
		}
		forest, err := mlmodel.FitForest(sparsePlanDataset(2000, 200), mlmodel.ForestConfig{Trees: 20, Seed: 3, Parallel: true})
		if err != nil {
			panic(err)
		}
		kernelModels.models = map[string]mlmodel.Model{
			"gbm150x5": logGBMEnsemble(150, 5),
			"gbm300x6": logGBMEnsemble(300, 6),
			"forest16": forest,
		}
		kernelModels.X = vecops.MatrixFromRows(sparsePlanRows(1024, 300), planWidth)
	})
	return kernelModels.models, kernelModels.X
}

// BenchmarkTreeKernel scores 1024 plan-vector rows in the 16-row chunks the
// enumeration hands the model: the 2-member log-target GBM ensembles
// roboptd trains with -quick (150 trees of depth 5) and without it (300 of
// depth 6), and a Forest at its default depth cap of 16, deeper than the
// compiled layout pads.
func BenchmarkTreeKernel(b *testing.B) {
	models, X := kernelBenchModels()
	out := make([]float64, X.Rows)
	for _, name := range []string{"gbm150x5", "gbm300x6", "forest16"} {
		bm := mlmodel.Batcher(models[name])
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < X.Rows; lo += 16 {
					chunk := vecops.Matrix{Data: X.Data[lo*X.Cols : (lo+16)*X.Cols], Rows: 16, Cols: X.Cols}
					bm.PredictBatch(&chunk, out[lo:lo+16])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*X.Rows), "ns/row")
		})
	}
}
