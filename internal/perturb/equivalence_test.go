package perturb

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// boundsAt reads every parametric layer of def from src at one prefix.
func boundsAt(t testing.TB, def *dnn.NetDef, src IntervalSource, prefix int) WeightBounds {
	t.Helper()
	w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
	for _, name := range ParametricNames(def) {
		lo, hi, err := src.WeightIntervals(name, prefix)
		if err != nil {
			t.Fatal(err)
		}
		w.Lo[name], w.Hi[name] = lo, hi
	}
	return w
}

// sameBound reports bitwise equality with +0 and -0 counted equal; two NaNs
// are equal whatever their payloads.
func sameBound(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || a == b || (a != a && b != b)
}

// checkMatchesReference runs Evaluator and the scalar reference on one input
// and fails unless every bound agrees.
func checkMatchesReference(t testing.TB, ev *Evaluator, ref *refEvaluator, in *dnn.Volume, w WeightBounds, what string) (lo, hi []float32) {
	t.Helper()
	lo, hi, err := ev.Forward(in, w)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	rlo, rhi, err := ref.Forward(in, w)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if len(lo) != len(rlo) || len(hi) != len(rhi) {
		t.Fatalf("%s: %d/%d logits, reference %d/%d", what, len(lo), len(hi), len(rlo), len(rhi))
	}
	for i := range lo {
		if !sameBound(lo[i], rlo[i]) || !sameBound(hi[i], rhi[i]) {
			t.Fatalf("%s: logit %d is [%v,%v], reference [%v,%v]", what, i, lo[i], hi[i], rlo[i], rhi[i])
		}
	}
	return lo, hi
}

// Property: on every zoo architecture and the residual DAG, at every
// byte-plane prefix and over several inputs, Evaluator's bounds equal the
// scalar reference's bit for bit.
func TestIntervalMatchesReferenceZoo(t *testing.T) {
	defs := []*dnn.NetDef{
		zoo.LeNet("lenet"), zoo.AlexNetMini("alexnet"), zoo.ResNetMini("resnet"),
		zoo.ResNetSkip("resnet-skip"), residualDef(),
	}
	for di, def := range defs {
		n, err := dnn.Build(def, rand.New(rand.NewSource(int64(20+di))))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(n.Snapshot())
		shape := dnn.Shape{C: def.InC, H: def.InH, W: def.InW}
		for prefix := 1; prefix <= 4; prefix++ {
			w := boundsAt(t, def, src, prefix)
			for seed := int64(0); seed < 3; seed++ {
				in := randIn(100*int64(di)+seed, shape)
				checkMatchesReference(t, ev, ref, in, w, fmt.Sprintf("%s prefix %d seed %d", def.Name, prefix, seed))
			}
		}
	}
}

// One Evaluator serves concurrent Forward calls (run under -race): every
// goroutine gets the bounds a serial call produces.
func TestEvaluatorConcurrentForward(t *testing.T) {
	def := zoo.ResNetSkip("resnet-skip")
	n, err := dnn.Build(def, rand.New(rand.NewSource(30)))
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	src := NewSegmentedSource(n.Snapshot())
	shape := dnn.Shape{C: def.InC, H: def.InH, W: def.InW}
	type job struct {
		in     *dnn.Volume
		w      WeightBounds
		lo, hi []float32
	}
	var jobs []job
	for prefix := 1; prefix <= 4; prefix++ {
		w := boundsAt(t, def, src, prefix)
		in := randIn(int64(31+prefix), shape)
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job{in: in, w: w, lo: lo, hi: hi})
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4*len(jobs))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range jobs {
				j := jobs[(i+g)%len(jobs)]
				lo, hi, err := ev.Forward(j.in, j.w)
				if err != nil {
					errs <- err
					return
				}
				for k := range lo {
					if lo[k] != j.lo[k] || hi[k] != j.hi[k] {
						errs <- fmt.Errorf("goroutine %d: logit %d is [%v,%v], serial [%v,%v]", g, k, lo[k], hi[k], j.lo[k], j.hi[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Regression: a weight bound widened to infinity (floatenc does this at
// prefix 1 for |w| >= 2^127) times a zero input is 0·Inf = NaN in IEEE
// arithmetic, and one NaN poisons every logit downstream. A zero input,
// whether an im2col padding tap or a real zero activation, must contribute
// an exact 0.
func TestPaddedConvInfiniteWeightBound(t *testing.T) {
	def := dnn.ChainDef("inf", 1, 4, 4, 16,
		dnn.LayerSpec{Name: "conv", Kind: dnn.KindConv, Out: 1, K: 3, Pad: 1})
	ev, err := NewEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newRefEvaluator(def)
	if err != nil {
		t.Fatal(err)
	}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 4, W: 4})
	for i := range in.Data {
		in.Data[i] = 1
	}
	in.Set(0, 1, 1, 0) // the one zero activation
	lo, hi := tensor.NewMatrix(1, 10), tensor.NewMatrix(1, 10)
	for k := 0; k < 9; k++ {
		lo.Set(0, k, 0.5)
		hi.Set(0, k, 0.5)
	}
	// Tap (ky,kx) = (0,0) is only known to be at least 2^127.
	lo.Set(0, 0, 0x1p127)
	hi.Set(0, 0, float32(math.Inf(1)))
	w := WeightBounds{Lo: map[string]*tensor.Matrix{"conv": lo}, Hi: map[string]*tensor.Matrix{"conv": hi}}
	ylo, yhi := checkMatchesReference(t, ev, ref, in, w, "padded conv")
	for i := range ylo {
		if math.IsNaN(float64(ylo[i])) || math.IsNaN(float64(yhi[i])) {
			t.Fatalf("output %d is [%v,%v]: NaN from 0·Inf", i, ylo[i], yhi[i])
		}
	}
	// Output (0,0) reads tap (0,0) from the padding and output (2,2) reads it
	// from the zero activation, so both are exact: 0.5 times the ones under
	// their other taps (three for (0,0), whose window also holds the zero;
	// eight for (2,2)).
	for _, c := range []struct {
		y, x int
		want float32
	}{{0, 0, 1.5}, {2, 2, 4}} {
		i := c.y*4 + c.x
		if ylo[i] != c.want || yhi[i] != c.want {
			t.Errorf("output (%d,%d) is [%v,%v], want exactly %v", c.y, c.x, ylo[i], yhi[i], c.want)
		}
	}
	// Output (1,1) reads tap (0,0) from a one: its upper bound is infinite.
	if i := 1*4 + 1; !math.IsInf(float64(yhi[i]), 1) {
		t.Errorf("output (1,1) upper bound %v, want +Inf", yhi[i])
	}
}

// Regression: NaN logits must never count as determined. Every comparison
// with NaN is false, so the Lemma-4 test "no upper bound outside the top-k
// reaches its smallest lower bound" would pass vacuously.
func TestTopKDeterminedNaN(t *testing.T) {
	nan := float32(math.NaN())
	cases := []struct{ lo, hi []float32 }{
		{[]float32{nan, 0}, []float32{nan, 1}},
		{[]float32{5, 1}, []float32{6, nan}},
		{[]float32{nan, nan, nan}, []float32{nan, nan, nan}},
	}
	for _, c := range cases {
		if ok, labels := TopKDetermined(c.lo, c.hi, 1); ok {
			t.Errorf("TopKDetermined(%v, %v) = determined %v, want undetermined", c.lo, c.hi, labels)
		}
	}
}

// FuzzIntervalMatchesReference builds a small random chain from the fuzz
// input (conv with pad and stride, max and average pooling, every
// activation, then a full layer), picks a prefix, and checks Evaluator
// against the scalar reference bit for bit. With finite weights no bound
// may be NaN; the high bit of the first byte plants one weight of magnitude
// 2^127, whose bounds are infinite below prefix 4.
func FuzzIntervalMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 6, 6, 3, 0, 2, 3, 1, 1, 1, 2, 2, 3, 4, 5, 3, 2})
	f.Add([]byte{0x81, 2, 8, 7, 5, 0, 3, 3, 1, 2, 3, 0, 1, 2, 1, 0, 2, 2, 4, 5, 9})
	f.Add([]byte{0x12, 1, 5, 5, 2, 2, 2, 1, 0, 5, 7, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int { // the next byte mod n, 0 once data runs out
			if len(data) == 0 {
				return 0
			}
			b := int(data[0])
			data = data[1:]
			return b % n
		}
		head := next(256)
		plantInf, prefix := head&0x80 != 0, 1+head%4
		seed := int64(next(256))
		in := dnn.Shape{C: 1 + next(2), H: 3 + next(6), W: 3 + next(6)}
		var nodes []dnn.LayerSpec
		shape := in
		for i, layers := 0, 1+next(5); i < layers; i++ {
			name := fmt.Sprintf("l%d", i)
			var spec dnn.LayerSpec
			switch next(6) {
			case 0:
				k := 1 + next(3)
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindConv, Out: 1 + next(3), K: k,
					Stride: 1 + next(2), Pad: next(k)}
			case 1:
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindPool, K: 1 + next(3), Stride: next(3), Mode: dnn.PoolMax}
			case 2:
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindPool, K: 1 + next(3), Stride: next(3), Mode: dnn.PoolAvg}
			case 3:
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindReLU}
			case 4:
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindSigmoid}
			default:
				spec = dnn.LayerSpec{Name: name, Kind: dnn.KindTanh}
			}
			out, err := spec.OutShape(shape)
			if err != nil {
				continue // the window no longer fits: skip the layer
			}
			nodes, shape = append(nodes, spec), out
		}
		labels := 1 + next(4)
		nodes = append(nodes, dnn.LayerSpec{Name: "fc", Kind: dnn.KindFull, Out: labels})
		def := dnn.ChainDef("fuzz", in.C, in.H, in.W, labels, nodes...)

		rng := rand.New(rand.NewSource(seed))
		n, err := dnn.Build(def, rng)
		if err != nil {
			t.Fatalf("build %+v: %v", def, err)
		}
		snap := n.Snapshot()
		for _, m := range snap { // give the zero-initialised biases values
			for r := 0; r < m.Rows(); r++ {
				m.Set(r, m.Cols()-1, float32(rng.NormFloat64()))
			}
		}
		if plantInf {
			m := snap[ParametricNames(def)[rng.Intn(len(snap))]]
			d := m.Data()
			d[rng.Intn(len(d))] = float32(math.Copysign(0x1p127, rng.Float64()-0.5))
		}
		x := dnn.NewVolume(in)
		for i := range x.Data {
			if rng.Intn(4) > 0 { // leave some exact zeros
				x.Data[i] = float32(rng.NormFloat64())
			}
		}
		ev, err := NewEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		w := boundsAt(t, def, NewSegmentedSource(snap), prefix)
		lo, hi := checkMatchesReference(t, ev, ref, x, w, fmt.Sprintf("%+v prefix %d", def.Nodes, prefix))
		if plantInf {
			return
		}
		for i := range lo {
			if lo[i] != lo[i] || hi[i] != hi[i] {
				t.Fatalf("finite weights gave logit %d bounds [%v,%v]", i, lo[i], hi[i])
			}
		}
	})
}
