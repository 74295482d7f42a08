package perturb

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"modelhub/internal/data"
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// testNet builds a small trained-ish (random) network covering every layer
// kind the evaluator supports.
func testNet(t *testing.T, seed int64) (*dnn.NetDef, *dnn.Network) {
	t.Helper()
	def := dnn.ChainDef("p", 2, 6, 6, 4,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "poolm", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 4, K: 2},
		dnn.LayerSpec{Name: "sig", Kind: dnn.KindSigmoid},
		dnn.LayerSpec{Name: "poola", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolAvg},
		dnn.LayerSpec{Name: "ip1", Kind: dnn.KindFull, Out: 8},
		dnn.LayerSpec{Name: "tanh1", Kind: dnn.KindTanh},
		dnn.LayerSpec{Name: "ip2", Kind: dnn.KindFull, Out: 4},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
	n, err := dnn.Build(def, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return def, n
}

func randIn(seed int64, s dnn.Shape) *dnn.Volume {
	rng := rand.New(rand.NewSource(seed))
	v := dnn.NewVolume(s)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

// networkWith builds def's runtime network holding weights w.
func networkWith(t testing.TB, def *dnn.NetDef, w map[string]*tensor.Matrix) *dnn.Network {
	t.Helper()
	n, err := dnn.Build(def, rand.New(rand.NewSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Restore(w); err != nil {
		t.Fatal(err)
	}
	return n
}

// checkContains fails unless every logit of want lies inside [lo, hi], with
// no slack.
func checkContains(t testing.TB, what string, lo, hi, want []float32) {
	t.Helper()
	for i, v := range want {
		if !(lo[i] <= v && v <= hi[i]) {
			t.Fatalf("%s: logit %d is %v, outside [%v,%v]", what, i, v, lo[i], hi[i])
		}
	}
}

// checkExactBounds requires exact weights to give bounds that strictly
// contain the plain forward's logits, each narrower than 2^-7·max(1,|v|):
// the bounds carry the rounding terms of both float32 sums, so they are
// never degenerate.
func checkExactBounds(t *testing.T, lo, hi, want []float32) {
	t.Helper()
	for i, v := range want {
		if !(lo[i] < v && v < hi[i]) {
			t.Fatalf("logit %d: plain %v, interval [%v,%v] does not strictly contain it", i, v, lo[i], hi[i])
		}
		if w := float64(hi[i]) - float64(lo[i]); w > 0x1p-7*math.Max(1, math.Abs(float64(v))) {
			t.Fatalf("logit %d: plain %v, interval [%v,%v] is %v wide", i, v, lo[i], hi[i], w)
		}
	}
}

// With exact (degenerate) weight bounds the interval bounds strictly
// contain the plain forward pass logits and are narrow.
func TestExactBoundsMatchPlainForward(t *testing.T) {
	def, n := testNet(t, 1)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	in := randIn(2, dnn.Shape{C: 2, H: 6, W: 6})
	lo, hi, err := ev.Forward(in, ExactWeights(n.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	checkExactBounds(t, lo, hi, n.Logits(in).Data)
}

// Soundness: with weights segmented into byte planes, the interval output
// must always contain the true logits, at every prefix, with no slack.
func TestIntervalSoundnessAcrossPrefixes(t *testing.T) {
	def, n := testNet(t, 3)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(4, dnn.Shape{C: 2, H: 6, W: 6})
	want := n.Logits(in).Data
	for prefix := 1; prefix <= 4; prefix++ {
		lo, hi, err := ev.Forward(in, boundsAt(t, def, src, prefix))
		if err != nil {
			t.Fatal(err)
		}
		checkContains(t, fmt.Sprintf("prefix %d", prefix), lo, hi, want)
	}
}

// Property: for random weights sampled inside the bounds, the logits
// dnn.Network computes lie inside the interval output, with no slack.
func TestIntervalContainsSampledWeightsProperty(t *testing.T) {
	def, n := testNet(t, 5)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	in := randIn(6, dnn.Shape{C: 2, H: 6, W: 6})

	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Build bounds: weight ± u for random u, then sample weights inside.
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		sampled := map[string]*tensor.Matrix{}
		for name, m := range snap {
			lo := m.Clone()
			hi := m.Clone()
			sm := m.Clone()
			for i := range lo.Data() {
				u := float32(rng.Float64() * 0.05)
				lo.Data()[i] -= u
				hi.Data()[i] += u
				sm.Data()[i] = lo.Data()[i] + rng.Float32()*(hi.Data()[i]-lo.Data()[i])
				sm.Data()[i] = min(max(sm.Data()[i], lo.Data()[i]), hi.Data()[i])
			}
			w.Lo[name], w.Hi[name] = lo, hi
			sampled[name] = sm
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		got := networkWith(t, def, sampled).Logits(in).Data
		for i, v := range got {
			if !(lo[i] <= v && v <= hi[i]) {
				t.Logf("seed %d logit %d: %v outside [%v,%v]", seed, i, v, lo[i], hi[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKDetermined(t *testing.T) {
	lo := []float32{5, 1, 0}
	hi := []float32{6, 2, 0.5}
	ok, labels := TopKDetermined(lo, hi, 1)
	if !ok || labels[0] != 0 {
		t.Fatalf("ok=%v labels=%v", ok, labels)
	}
	// Overlap between 1st and 2nd: undetermined for k=1.
	lo2 := []float32{5, 4.5}
	hi2 := []float32{6, 5.5}
	if ok, _ := TopKDetermined(lo2, hi2, 1); ok {
		t.Fatal("overlapping ranges must be undetermined")
	}
	// k=2 of 3, clear separation.
	lo3 := []float32{5, 4, 0}
	hi3 := []float32{6, 4.5, 1}
	ok, labels = TopKDetermined(lo3, hi3, 2)
	if !ok || labels[0] != 0 || labels[1] != 1 {
		t.Fatalf("k=2: ok=%v labels=%v", ok, labels)
	}
	if ok, _ := TopKDetermined(lo3, hi3, 0); ok {
		t.Fatal("k=0 must be undetermined")
	}
	if ok, _ := TopKDetermined(lo3, hi3, 4); ok {
		t.Fatal("k>n must be undetermined")
	}
}

// Degenerate intervals are always determined (up to exact ties).
func TestTopKDeterminedExact(t *testing.T) {
	lo := []float32{1, 3, 2}
	ok, labels := TopKDetermined(lo, lo, 1)
	if !ok || labels[0] != 1 {
		t.Fatalf("ok=%v labels=%v", ok, labels)
	}
}

// Progressive evaluation must agree with the full-precision prediction and
// must terminate by prefix 4.
func TestProgressiveMatchesFullPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	examples := data.Digits(rng, 300, 0.05)
	train, test := data.Split(examples, 0.8)
	def := zoo.LeNet("lenet")
	n, err := dnn.Build(def, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dnn.Train(n, train, dnn.TrainConfig{Epochs: 4, BatchSize: 16, LR: 0.1, Seed: 9}); err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	prefixCounts := map[int]int{}
	for _, ex := range test[:40] {
		res, err := Progressive(ev, src, ex.Input, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.Predict(ex.Input); res.Labels[0] != want {
			t.Fatalf("progressive label %d != full-precision %d", res.Labels[0], want)
		}
		prefixCounts[res.PrefixUsed]++
	}
	// The paper's headline: most queries should resolve with 1-2 planes.
	if prefixCounts[1]+prefixCounts[2] == 0 {
		t.Fatalf("no query resolved with high-order bytes only: %v", prefixCounts)
	}
}

func TestProgressiveMissingLayer(t *testing.T) {
	def, _ := testNet(t, 10)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := SegmentedSource{} // empty: every lookup fails
	if _, err := Progressive(ev, src, randIn(11, dnn.Shape{C: 2, H: 6, W: 6}), 1, 1); err == nil {
		t.Fatal("missing layer weights must error")
	}
}

func TestForwardShapeMismatch(t *testing.T) {
	def, n := testNet(t, 12)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ev.Forward(randIn(13, dnn.Shape{C: 1, H: 6, W: 6}), ExactWeights(n.Snapshot())); err == nil {
		t.Fatal("wrong input shape must error")
	}
}

func TestForwardWrongWeightShape(t *testing.T) {
	def, n := testNet(t, 14)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	snap := n.Snapshot()
	snap["conv1"] = tensor.NewMatrix(1, 1)
	if _, _, err := ev.Forward(randIn(15, dnn.Shape{C: 2, H: 6, W: 6}), ExactWeights(snap)); err == nil {
		t.Fatal("wrong weight shape must error")
	}
}

// mulInterval here is the scalar reference's (reference_test.go).
func TestMulInterval(t *testing.T) {
	cases := []struct {
		al, ah, bl, bh, lo, hi float32
	}{
		{1, 2, 3, 4, 3, 8},
		{-2, 1, 3, 4, -8, 4},
		{-2, -1, -4, -3, 3, 8},
		{-1, 1, -1, 1, -1, 1},
		{0, 0, -5, 5, 0, 0},
		// A zero factor is an exact 0 even against an infinite bound.
		{0, 0, float32(math.Inf(-1)), float32(math.Inf(1)), 0, 0},
		{0, 1, float32(math.Inf(-1)), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Inf(1))},
		{-2, 0, 0x1p127, float32(math.Inf(1)), float32(math.Inf(-1)), 0},
	}
	for _, c := range cases {
		lo, hi := mulInterval(c.al, c.ah, c.bl, c.bh)
		if lo != c.lo || hi != c.hi {
			t.Errorf("mul([%v,%v],[%v,%v]) = [%v,%v], want [%v,%v]", c.al, c.ah, c.bl, c.bh, lo, hi, c.lo, c.hi)
		}
	}
}

// Interval widths must shrink monotonically as more byte planes are read.
func TestIntervalWidthShrinks(t *testing.T) {
	def, n := testNet(t, 16)
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	in := randIn(17, dnn.Shape{C: 2, H: 6, W: 6})
	prev := float64(-1)
	for prefix := 1; prefix <= 4; prefix++ {
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		for _, name := range ParametricNames(def) {
			lo, hi, err := src.WeightIntervals(name, prefix)
			if err != nil {
				t.Fatal(err)
			}
			w.Lo[name], w.Hi[name] = lo, hi
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		var width float64
		for i := range lo {
			width += float64(hi[i]) - float64(lo[i])
		}
		if prev >= 0 && width > prev+1e-6 {
			t.Fatalf("prefix %d width %v wider than previous %v", prefix, width, prev)
		}
		prev = width
	}
	if prev > 1e-3 {
		t.Fatalf("prefix-4 intervals should be (near) degenerate, width %v", prev)
	}
}

// Regression: exact weights at prefix 4 used to give degenerate bounds from
// a float64 sum narrowed once, whose order differs from Network's float32
// sum. Row a's float32 sum 1 + 2^-24 + 2^-24 + 2^-24 rounds to 1 at every
// step, while its float64 sum narrows to 1 + 2^-22; row b is 1 + 2^-23.
// Network.Predict says b, so Progressive must too.
func TestProgressivePrefix4AgreesWithPredict(t *testing.T) {
	def := dnn.ChainDef("tie", 1, 1, 4, 2, dnn.LayerSpec{Name: "fc", Kind: dnn.KindFull, Out: 2})
	w := tensor.NewMatrix(2, 5)
	copy(w.Row(0), []float32{1, 0x1p-24, 0x1p-24, 0x1p-24, 0})
	copy(w.Row(1), []float32{1 + 0x1p-23, 0, 0, 0, 0})
	snap := map[string]*tensor.Matrix{"fc": w}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 1, W: 4})
	for i := range in.Data {
		in.Data[i] = 1
	}
	want := networkWith(t, def, snap).Predict(in)
	if want != 1 {
		t.Fatalf("Network.Predict = %d, want row b (1)", want)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Progressive(ev, NewSegmentedSource(snap), in, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Labels[0] != want || res.PrefixUsed != 4 {
		t.Fatalf("progressive answered %v at prefix %d, Network.Predict %d at prefix 4", res.Labels, res.PrefixUsed, want)
	}
}

// Batching changes no result: every example's bounds from ForwardBatch and
// its ProgressiveBatch result are bit for bit those of a one-element call,
// at several batch sizes and worker counts.
func TestForwardBatchMatchesSingle(t *testing.T) {
	defs := []*dnn.NetDef{zoo.LeNet("lenet"), residualDef()}
	for di, def := range defs {
		n, err := dnn.Build(def, rand.New(rand.NewSource(int64(60+di))))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(n.Snapshot())
		shape := dnn.Shape{C: def.InC, H: def.InH, W: def.InW}
		var ins []*dnn.Volume
		for i := 0; i < 16; i++ {
			ins = append(ins, randIn(int64(70+i), shape))
		}
		w := boundsAt(t, def, src, 2)
		wantLo, wantHi := make([][]float32, len(ins)), make([][]float32, len(ins))
		wantRes := make([]*Result, len(ins))
		for i, in := range ins {
			if wantLo[i], wantHi[i], err = ev.Forward(in, w); err != nil {
				t.Fatal(err)
			}
			if wantRes[i], err = Progressive(ev, src, in, 2, 1); err != nil {
				t.Fatal(err)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			for _, size := range []int{1, 3, 16} {
				what := fmt.Sprintf("%s GOMAXPROCS %d batch %d", def.Name, procs, size)
				lo, hi, err := ev.ForwardBatch(ins[:size], w)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ProgressiveBatch(ev, src, ins[:size], 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < size; i++ {
					if !sameBits(lo[i], wantLo[i]) || !sameBits(hi[i], wantHi[i]) {
						t.Fatalf("%s example %d: bounds differ from a one-element call", what, i)
					}
					r, want := res[i], wantRes[i]
					if r.PrefixUsed != want.PrefixUsed || fmt.Sprint(r.Labels) != fmt.Sprint(want.Labels) ||
						!sameBits(r.Lo, want.Lo) || !sameBits(r.Hi, want.Hi) {
						t.Fatalf("%s example %d: progressive %v at %d, one-element %v at %d",
							what, i, r.Labels, r.PrefixUsed, want.Labels, want.PrefixUsed)
					}
				}
			}
			runtime.GOMAXPROCS(prev)
		}
	}
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
