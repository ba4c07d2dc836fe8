package mlmodel_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/mlmodel"
	"repro/internal/vecops"
)

// refTree is a tree artifact as SaveModel writes it.
type refTree struct {
	Feature   []int32   `json:"feature"`
	Threshold []float64 `json:"threshold"`
	Left      []int32   `json:"left"`
	Right     []int32   `json:"right"`
	Value     []float64 `json:"value"`
	Spread    []float64 `json:"spread"`
}

// leaf walks x node by node from the root: the reference semantics the
// compiled kernel must reproduce. A NaN feature fails x <= thr and goes
// right.
func (rt *refTree) leaf(x []float64) int {
	i := 0
	for rt.Feature[i] >= 0 {
		if x[rt.Feature[i]] <= rt.Threshold[i] {
			i = int(rt.Left[i])
		} else {
			i = int(rt.Right[i])
		}
	}
	return i
}

// refModel decodes a tree-family model envelope into a plain evaluator that
// applies each family's scalar formula to node-by-node tree walks. For a
// bare tree it also reports the leaf spread, for a GBM the spread of its
// tail partial sums and for a forest that of its tree estimates; composite
// models report NaN.
func refModel(t testing.TB, raw []byte) func(x []float64) (mean, spread float64) {
	t.Helper()
	var env struct {
		Type    string          `json:"type"`
		Payload json.RawMessage `json:"payload"`
	}
	decode := func(data []byte, v any) {
		t.Helper()
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("reference decode: %v", err)
		}
	}
	// LoadModel reads the envelope as the first JSON value of its input.
	if err := json.NewDecoder(bytes.NewReader(raw)).Decode(&env); err != nil {
		t.Fatalf("reference decode: %v", err)
	}
	switch env.Type {
	case "tree":
		var rt refTree
		decode(env.Payload, &rt)
		return func(x []float64) (float64, float64) {
			i := rt.leaf(x)
			spread := 0.0
			if len(rt.Spread) > 0 {
				spread = rt.Spread[i]
			}
			return rt.Value[i], spread
		}
	case "gbm":
		var g struct {
			Base, LR float64
			Trees    []refTree
		}
		decode(env.Payload, &g)
		return func(x []float64) (float64, float64) {
			// The spread is the population std of the partial sums after
			// the last gbmTailWindow (16) rounds.
			s, tail, tailSq := g.Base, 0.0, 0.0
			k := min(len(g.Trees), 16)
			for i, rt := range g.Trees {
				s += g.LR * rt.Value[rt.leaf(x)]
				if i >= len(g.Trees)-k {
					tail += s
					tailSq += s * s
				}
			}
			if k == 0 {
				return s, 0
			}
			mu := tail / float64(k)
			return s, math.Sqrt(max(tailSq/float64(k)-mu*mu, 0))
		}
	case "forest":
		var f struct{ Trees []refTree }
		decode(env.Payload, &f)
		inv := 1 / float64(len(f.Trees))
		return func(x []float64) (float64, float64) {
			s, sq := 0.0, 0.0
			for _, rt := range f.Trees {
				v := rt.Value[rt.leaf(x)]
				s += v
				sq += v * v
			}
			m := s * inv
			return m, math.Sqrt(max(sq*inv-m*m, 0))
		}
	case "logtarget":
		inner := refModel(t, env.Payload)
		return func(x []float64) (float64, float64) {
			m, _ := inner(x)
			y := math.Expm1(m)
			if y < 0 {
				y = 0
			}
			return y, math.NaN()
		}
	case "ensemble":
		var raws []json.RawMessage
		decode(env.Payload, &raws)
		var members []func([]float64) (float64, float64)
		for _, r := range raws {
			members = append(members, refModel(t, r))
		}
		return func(x []float64) (float64, float64) {
			s := 0.0
			for _, m := range members {
				v, _ := m(x)
				s += v
			}
			return s / float64(len(members)), math.NaN()
		}
	}
	t.Fatalf("reference: unsupported model type %q", env.Type)
	return nil
}

// kernelParity checks, bit for bit, that every prediction path of m agrees
// with the reference on every row of X: scalar Predict and PredictDist,
// PredictBatch, and PredictBatchDist. Spreads from the scalar and batch
// dist paths must agree too, and with the reference's where it has one.
// It returns the first disagreement.
func kernelParity(name string, m mlmodel.Model, ref func([]float64) (float64, float64), X *vecops.Matrix) error {
	n := X.Rows
	out := make([]float64, n)
	mean, spread, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	mlmodel.Batcher(m).PredictBatch(X, out)
	dm := mlmodel.DistBatcher(m)
	dm.PredictBatchDist(X, mean, spread, lo, hi)
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for r := 0; r < n; r++ {
		x := X.Row(r)
		want, wantSpread := ref(x)
		got := m.Predict(x)
		sm, ss, sl, sh := dm.(mlmodel.DistModel).PredictDist(x)
		switch {
		case !same(got, want):
			return fmt.Errorf("%s rows=%d row %d %v: Predict=%v reference=%v", name, n, r, x, got, want)
		case !same(out[r], want):
			return fmt.Errorf("%s rows=%d row %d %v: PredictBatch=%v reference=%v", name, n, r, x, out[r], want)
		case !same(mean[r], want) || !same(sm, want):
			return fmt.Errorf("%s rows=%d row %d: batch dist mean=%v scalar dist mean=%v reference=%v", name, n, r, mean[r], sm, want)
		case !same(ss, spread[r]) || !same(sl, lo[r]) || !same(sh, hi[r]):
			return fmt.Errorf("%s rows=%d row %d: scalar dist (%v, %v, %v) != batch dist (%v, %v, %v)",
				name, n, r, ss, sl, sh, spread[r], lo[r], hi[r])
		case !math.IsNaN(wantSpread) && !same(spread[r], wantSpread):
			return fmt.Errorf("%s rows=%d row %d: spread=%v, reference %v", name, n, r, spread[r], wantSpread)
		}
	}
	return nil
}

// kernelThresholds are the split thresholds of the generated trees; rows
// draw from them too, so comparisons hit x == thr exactly.
var kernelThresholds = []float64{-2, -0.5, 0, 0.75, 1, 3}

// kernelRows builds rows × nf rows mixing threshold values, NaN, ±Inf, ±0
// and random values.
func kernelRows(rng *rand.Rand, rows, nf int) *vecops.Matrix {
	return fillKernelRows(rng, vecops.NewMatrix(rows, nf))
}

// paddedKernelRows is kernelRows in a matrix with vecops.RowSpan cells of
// capacity past every row's start, which the compiled walk reads in place.
// The capacity holds NaN: a read past a row would show in the results.
func paddedKernelRows(rng *rand.Rand, rows, nf int) *vecops.Matrix {
	data := make([]float64, rows*nf+vecops.RowSpan)
	for i := range data {
		data[i] = math.NaN()
	}
	return fillKernelRows(rng, &vecops.Matrix{Data: data[:rows*nf], Rows: rows, Cols: nf})
}

func fillKernelRows(rng *rand.Rand, X *vecops.Matrix) *vecops.Matrix {
	special := append([]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}, kernelThresholds...)
	for i := range X.Data {
		if rng.Intn(3) == 0 {
			X.Data[i] = rng.NormFloat64() * 3
		} else {
			X.Data[i] = special[rng.Intn(len(special))]
		}
	}
	return X
}

// genTree grows a random tree artifact in preorder. Below depth minDepth a
// node always splits; at maxDepth it is always a leaf; in between it splits
// with probability pSplit.
func genTree(rng *rand.Rand, nf, minDepth, maxDepth int, pSplit float64) refTree {
	var rt refTree
	var grow func(depth int) int32
	grow = func(depth int) int32 {
		i := int32(len(rt.Feature))
		rt.Feature = append(rt.Feature, -1)
		rt.Threshold = append(rt.Threshold, 0)
		rt.Left = append(rt.Left, 0)
		rt.Right = append(rt.Right, 0)
		rt.Value = append(rt.Value, rng.NormFloat64())
		rt.Spread = append(rt.Spread, rng.Float64())
		if depth < maxDepth && (depth < minDepth || rng.Float64() < pSplit) {
			l := grow(depth + 1)
			r := grow(depth + 1)
			rt.Feature[i] = int32(rng.Intn(nf))
			rt.Threshold[i] = kernelThresholds[rng.Intn(len(kernelThresholds))]
			rt.Left[i], rt.Right[i] = l, r
		}
		return i
	}
	grow(0)
	return rt
}

// chainTree is a tree of the given depth whose every split has one leaf
// child: alternately left and right, so the path zig-zags.
func chainTree(depth, nf int) refTree {
	var rt refTree
	for d := 0; d <= depth; d++ {
		base := int32(len(rt.Feature))
		if d == depth {
			rt.Feature = append(rt.Feature, -1)
			rt.Threshold = append(rt.Threshold, 0)
			rt.Left = append(rt.Left, 0)
			rt.Right = append(rt.Right, 0)
			rt.Value = append(rt.Value, float64(d))
			break
		}
		// Node base splits; base+1 is its leaf child, base+2 the next split.
		leaf, next := base+1, base+2
		l, r := leaf, next
		if d%2 == 1 {
			l, r = next, leaf
		}
		rt.Feature = append(rt.Feature, int32(d%nf), -1)
		rt.Threshold = append(rt.Threshold, kernelThresholds[d%len(kernelThresholds)], 0)
		rt.Left = append(rt.Left, l, 0)
		rt.Right = append(rt.Right, r, 0)
		rt.Value = append(rt.Value, 0, float64(-d-1))
	}
	return rt
}

// levelOrderTree is a complete depth-2 tree numbered breadth first: every
// child follows its parent, but not in the preorder SaveModel writes.
func levelOrderTree() refTree {
	return refTree{
		Feature:   []int32{0, 1, 2, -1, -1, -1, -1},
		Threshold: []float64{0, 1, -0.5, 0, 0, 0, 0},
		Left:      []int32{1, 3, 5, 0, 0, 0, 0},
		Right:     []int32{2, 4, 6, 0, 0, 0, 0},
		Value:     []float64{0, 0, 0, 1, 2, 3, 4},
		Spread:    []float64{0, 0, 0, 0.1, 0.2, 0.3, 0.4},
	}
}

func mustJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func gbmEnvelope(t testing.TB, base, lr float64, trees ...refTree) string {
	return `{"type":"gbm","payload":` + mustJSON(t, map[string]any{"base": base, "lr": lr, "trees": trees}) + `}`
}

func forestEnvelope(t testing.TB, trees ...refTree) string {
	return `{"type":"forest","payload":` + mustJSON(t, map[string]any{"trees": trees}) + `}`
}

func saveString(t testing.TB, m mlmodel.Model) string {
	t.Helper()
	var buf bytes.Buffer
	if err := mlmodel.SaveModel(&buf, m); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	return buf.String()
}

// TestTreeKernelParity is the bit-parity property of the compiled tree
// kernel: for trees of every shape the compiler meets — a single leaf,
// unbalanced trees, a breadth-first numbered tree, zig-zag chains, complete
// trees at the padding cap (depth 8) and one past it (depth 9, walked node
// by node), a split on the last feature, and models whose trees differ in
// depth — and for fitted models before and after a SaveModel/LoadModel
// round trip, every prediction path of Tree, Forest, GBM, LogTarget and
// Ensemble equals a node-by-node reference walk bit for bit, spreads
// included: a tree's leaf spread, a GBM's tail spread and a forest's tree
// disagreement. Row counts cover the rows that walk one at a time, the
// eight-row groups, groups whose lanes are padded with a repeated row and
// the block boundaries, each read in place and staged; inputs include NaN,
// ±Inf, −0 and values equal to the thresholds.
func TestTreeKernelParity(t *testing.T) {
	const nf = 6
	rng := rand.New(rand.NewSource(12))
	leaf := refTree{Feature: []int32{-1}, Threshold: []float64{0}, Left: []int32{0}, Right: []int32{0}, Value: []float64{1.5}, Spread: []float64{0.25}}
	shapes := map[string]refTree{
		"leaf":       leaf,
		"unbalanced": genTree(rng, nf, 1, 6, 0.55),
		"sparse":     genTree(rng, nf, 0, 8, 0.4),
		"levelorder": levelOrderTree(),
		"chain8":     chainTree(8, nf),
		"chain9":     chainTree(9, nf),
		"full8":      genTree(rng, nf, 8, 8, 1),
		"full9":      genTree(rng, nf, 9, 9, 1),
		"lastfeat":   lastFeatureTree(nf),
	}
	envs := map[string]string{}
	var all []refTree
	for name, rt := range shapes {
		envs["tree/"+name] = `{"type":"tree","payload":` + mustJSON(t, rt) + `}`
		all = append(all, rt)
	}
	var mixed []refTree
	for i := 0; i < 12; i++ {
		mixed = append(mixed, genTree(rng, nf, 0, 3+i%7, 0.7))
	}
	envs["gbm/shapes"] = gbmEnvelope(t, 0.3, 0.1, all...)
	envs["gbm/mixed"] = gbmEnvelope(t, -1, 0.05, mixed...)
	// Trees of depth 0 to 8 compile into one layout padded to depth 8.
	var mixed8 []refTree
	for i := 0; i < 20; i++ {
		mixed8 = append(mixed8, genTree(rng, nf, i%9, i%9, 0))
	}
	mixed8 = append(mixed8, lastFeatureTree(nf))
	envs["gbm/mixed8"] = gbmEnvelope(t, 0.7, 0.2, mixed8...)
	envs["forest/mixed8"] = forestEnvelope(t, mixed8...)
	envs["forest/shapes"] = forestEnvelope(t, all...)
	envs["logtarget/gbm"] = `{"type":"logtarget","payload":` + gbmEnvelope(t, 0.3, 0.1, mixed...) + `}`
	envs["ensemble"] = `{"type":"ensemble","payload":[` + envs["logtarget/gbm"] + `,` + envs["forest/shapes"] + `,` + envs["tree/chain9"] + `]}`

	d := synthDataset(300, nf, 5, batchTarget, 0.2)
	tree, err := mlmodel.FitTree(d, mlmodel.TreeConfig{MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	forest, err := mlmodel.FitForest(d, mlmodel.ForestConfig{Trees: 8, Seed: 4}) // default depth 16
	if err != nil {
		t.Fatal(err)
	}
	gbm, err := mlmodel.FitGBM(d, mlmodel.GBMConfig{Trees: 30, MaxDepth: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	logGBM, err := mlmodel.LogTargetTrainer{Inner: mlmodel.GBMTrainer{Config: mlmodel.GBMConfig{Trees: 20, MaxDepth: 9, MinLeaf: 1, Seed: 8}}}.Fit(d)
	if err != nil {
		t.Fatal(err)
	}
	fitted := map[string]mlmodel.Model{
		"fit/tree":      tree,
		"fit/forest":    forest,
		"fit/gbm":       gbm,
		"fit/logtarget": logGBM,
		"fit/ensemble":  mlmodel.Ensemble{Models: []mlmodel.Model{logGBM, gbm, forest, tree}},
	}

	type model struct {
		m   mlmodel.Model
		ref func([]float64) (float64, float64)
	}
	models := map[string]model{}
	for name, env := range envs {
		m, err := mlmodel.LoadModel(strings.NewReader(env))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		models[name] = model{m, refModel(t, []byte(env))}
	}
	for name, m := range fitted {
		saved := saveString(t, m)
		ref := refModel(t, []byte(saved))
		back, err := mlmodel.LoadModel(strings.NewReader(saved))
		if err != nil {
			t.Fatalf("%s: LoadModel: %v", name, err)
		}
		models[name] = model{m, ref}
		models[name+"/reloaded"] = model{back, ref}
	}

	for rows := 0; rows <= 33; rows++ {
		if rows > 17 && rows != 33 {
			continue
		}
		for _, X := range []*vecops.Matrix{kernelRows(rng, rows, nf), paddedKernelRows(rng, rows, nf)} {
			for name, mm := range models {
				if err := kernelParity(name, mm.m, mm.ref, X); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// lastFeatureTree splits on feature nf−1 at its root and on nf−1 and 0
// below, so a row read one cell short or long changes the leaf.
func lastFeatureTree(nf int) refTree {
	return refTree{
		Feature:   []int32{int32(nf - 1), int32(nf - 1), -1, -1, 0, -1, -1},
		Threshold: []float64{0, -0.5, 0, 0, 1, 0, 0},
		Left:      []int32{1, 2, 0, 0, 5, 0, 0},
		Right:     []int32{4, 3, 0, 0, 6, 0, 0},
		Value:     []float64{0, 0, 1, 2, 0, 3, 4},
		Spread:    []float64{0, 0, 0.1, 0.2, 0, 0.3, 0.4},
	}
}

// TestPredictPanicsOnNarrowRows: a model that splits on a feature the rows
// do not have panics on every prediction path, as the node-by-node walk
// does by indexing past the row. The compiled walk reads rows through
// masked fixed-size views, so without the check it would read the next row
// or the padding and return a value.
func TestPredictPanicsOnNarrowRows(t *testing.T) {
	const nf = 6
	rt := lastFeatureTree(nf)
	deep := chainTree(9, nf) // walked node by node
	deep.Feature[0] = nf - 1
	envs := map[string]string{
		"tree":      `{"type":"tree","payload":` + mustJSON(t, rt) + `}`,
		"gbm":       gbmEnvelope(t, 0, 0.1, rt, rt),
		"forest":    forestEnvelope(t, rt, rt),
		"gbm/deep":  gbmEnvelope(t, 0, 0.1, deep),
		"logtarget": `{"type":"logtarget","payload":` + gbmEnvelope(t, 0, 0.1, rt) + `}`,
	}
	rng := rand.New(rand.NewSource(5))
	for name, env := range envs {
		m, err := mlmodel.LoadModel(strings.NewReader(env))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rows := range []int{1, 8, 16} {
			for _, X := range []*vecops.Matrix{kernelRows(rng, rows, nf-1), paddedKernelRows(rng, rows, nf-1)} {
				n := X.Rows
				out, spread, lo, hi := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
				paths := map[string]func(){
					"Predict":          func() { m.Predict(X.Row(0)) },
					"PredictDist":      func() { m.(mlmodel.DistModel).PredictDist(X.Row(0)) },
					"PredictBatch":     func() { mlmodel.Batcher(m).PredictBatch(X, out) },
					"PredictBatchDist": func() { mlmodel.DistBatcher(m).PredictBatchDist(X, out, spread, lo, hi) },
				}
				for path, call := range paths {
					if !panics(call) {
						t.Errorf("%s rows=%d cap=%d: %s on %d-column rows did not panic", name, rows, cap(X.Data), path, nf-1)
					}
				}
			}
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// TestLoadRejectsNonTree: a tree artifact whose node graph is not a tree
// rooted at node 0 fails to load. Before this check, a node listing itself
// or an ancestor as a child loaded and then made Predict loop forever.
func TestLoadRejectsNonTree(t *testing.T) {
	cases := map[string]refTree{
		// The two-node GBM tree whose node 1 is its own child.
		"self-loop": {Feature: []int32{0, 0}, Threshold: []float64{0, 0}, Left: []int32{1, 1}, Right: []int32{1, 1}, Value: []float64{0, 0}},
		"back-edge": {Feature: []int32{0, -1, 1}, Threshold: []float64{0, 0, 0}, Left: []int32{1, 0, 1}, Right: []int32{2, 0, 1}, Value: []float64{0, 1, 2}},
		"two-parents": {Feature: []int32{0, 1, -1, -1}, Threshold: []float64{0, 0, 0, 0},
			Left: []int32{1, 2, 0, 0}, Right: []int32{2, 3, 0, 0}, Value: []float64{0, 0, 1, 2}},
		"same-children": {Feature: []int32{0, -1}, Threshold: []float64{0, 0}, Left: []int32{1, 0}, Right: []int32{1, 0}, Value: []float64{0, 1}},
		"orphan": {Feature: []int32{0, -1, -1, -1}, Threshold: []float64{0, 0, 0, 0},
			Left: []int32{1, 0, 0, 0}, Right: []int32{2, 0, 0, 0}, Value: []float64{0, 1, 2, 3}},
		"out-of-range": {Feature: []int32{0, -1}, Threshold: []float64{0, 0}, Left: []int32{1, 0}, Right: []int32{2, 0}, Value: []float64{0, 1}},
	}
	for name, rt := range cases {
		for _, env := range []string{gbmEnvelope(t, 0, 1, rt), forestEnvelope(t, rt), `{"type":"tree","payload":` + mustJSON(t, rt) + `}`} {
			if _, err := mlmodel.LoadModel(strings.NewReader(env)); err == nil {
				t.Errorf("%s: LoadModel accepted %s", name, env)
			}
		}
	}
}

// FuzzTreeArtifact: on arbitrary tree JSON, loading a tree, GBM or forest
// built from it either fails, or yields a model whose every prediction path
// agrees bit for bit with the node-by-node reference and returns within a
// time bound.
func FuzzTreeArtifact(f *testing.F) {
	seed := func(rt refTree) { f.Add([]byte(mustJSON(f, rt))) }
	rng := rand.New(rand.NewSource(3))
	seed(genTree(rng, 4, 1, 5, 0.6))
	seed(genTree(rng, 4, 9, 9, 1))
	seed(chainTree(8, 4))
	seed(levelOrderTree())
	f.Add([]byte(`{"feature":[0,0],"threshold":[0,0],"left":[1,1],"right":[1,1],"value":[0,0]}`))
	f.Add([]byte(`{"feature":[-1],"threshold":[0],"left":[0],"right":[0],"value":[2]}`))
	f.Fuzz(func(t *testing.T, tree []byte) {
		for _, env := range []string{
			`{"type":"tree","payload":` + string(tree) + `}`,
			`{"type":"gbm","payload":{"base":0.5,"lr":0.1,"trees":[` + string(tree) + `,` + string(tree) + `]}}`,
			`{"type":"forest","payload":{"trees":[` + string(tree) + `]}}`,
		} {
			m, err := mlmodel.LoadModel(strings.NewReader(env))
			if err != nil {
				continue
			}
			width, _ := mlmodel.FeatureWidth(m)
			if width > 1<<12 {
				continue // a legal artifact, but rows this wide are not worth building
			}
			ref := refModel(t, []byte(env))
			done := make(chan error, 1)
			go func() {
				rng := rand.New(rand.NewSource(int64(len(tree))))
				for _, rows := range []int{1, 5, 17} {
					if err := kernelParity(env, m, ref, kernelRows(rng, rows, max(width, 1))); err != nil {
						done <- err
						return
					}
				}
				done <- nil
			}()
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("predictions did not return within 5s for %s", env)
			}
		}
	})
}
