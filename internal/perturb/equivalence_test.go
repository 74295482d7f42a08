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

// sampleBox draws weights inside the bounds: every lower endpoint (which
// 0), every upper endpoint (which 1), or uniform draws (which 2), clamped to
// finite float32 values.
func sampleBox(rng *rand.Rand, w WeightBounds, which int) map[string]*tensor.Matrix {
	out := map[string]*tensor.Matrix{}
	for _, name := range dnn.SortedNames(w.Lo) { // a fixed order of rng draws
		lo, hi := w.Lo[name], w.Hi[name]
		m := lo.Clone()
		for i, l := range lo.Data() {
			l := max(l, -math.MaxFloat32)
			h := min(hi.Data()[i], math.MaxFloat32)
			switch which {
			case 0:
				m.Data()[i] = l
			case 1:
				m.Data()[i] = h
			default:
				v := float32(float64(l) + rng.Float64()*(float64(h)-float64(l)))
				m.Data()[i] = min(max(v, l), h)
			}
		}
		out[name] = m
	}
	return out
}

// Property: on every zoo architecture and the residual DAG, at every
// byte-plane prefix and over several inputs, the logits dnn.Network
// computes lie inside Evaluator's bounds, with no slack, for weights at the
// box endpoints (the ones the scalar reference multiplies) and at random
// points inside the box.
func TestIntervalMatchesReferenceZoo(t *testing.T) {
	defs := []*dnn.NetDef{
		zoo.LeNet("lenet"), zoo.AlexNetMini("alexnet"), zoo.ResNetMini("resnet"),
		zoo.ResNetSkip("resnet-skip"), residualDef(),
	}
	rng := rand.New(rand.NewSource(19))
	for di, def := range defs {
		n, err := dnn.Build(def, rand.New(rand.NewSource(int64(20+di))))
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(n.Snapshot())
		shape := dnn.Shape{C: def.InC, H: def.InH, W: def.InW}
		for prefix := 1; prefix <= 4; prefix++ {
			w := boundsAt(t, def, src, prefix)
			var nets []*dnn.Network
			for which := 0; which < 4; which++ {
				nets = append(nets, networkWith(t, def, sampleBox(rng, w, which)))
			}
			for seed := int64(0); seed < 3; seed++ {
				in := randIn(100*int64(di)+seed, shape)
				lo, hi, err := ev.Forward(in, w)
				if err != nil {
					t.Fatal(err)
				}
				for which, net := range nets {
					checkContains(t, fmt.Sprintf("%s prefix %d seed %d sample %d", def.Name, prefix, seed, which),
						lo, hi, net.Logits(in).Data)
				}
			}
		}
	}
}

// Rump's bound, per affine kernel: on one-layer nets (full, padded conv,
// strided conv) with exact inputs, the midpoint-radius radius is at most
// 1.5 times the scalar reference's plus the rounding terms
// 2γ(2|Wm|+Wr)|x| of the two float32 sums (γ = 2·γ_{kk+2}) and a few ulps.
func TestAffineRadiusWithinRumpBound(t *testing.T) {
	defs := []*dnn.NetDef{
		dnn.ChainDef("full", 2, 3, 3, 5, dnn.LayerSpec{Name: "l", Kind: dnn.KindFull, Out: 5}),
		dnn.ChainDef("conv", 2, 5, 5, 3*5*5, dnn.LayerSpec{Name: "l", Kind: dnn.KindConv, Out: 3, K: 3, Pad: 1}),
		dnn.ChainDef("conv-s2", 2, 6, 6, 4*3*3, dnn.LayerSpec{Name: "l", Kind: dnn.KindConv, Out: 4, K: 2, Stride: 2}),
	}
	const u = 0x1p-24
	for di, def := range defs {
		rng := rand.New(rand.NewSource(int64(40 + di)))
		n, err := dnn.Build(def, rng)
		if err != nil {
			t.Fatal(err)
		}
		snap := n.Snapshot()
		for _, m := range snap { // give the zero-initialised biases values
			for r := 0; r < m.Rows(); r++ {
				m.Set(r, m.Cols()-1, float32(rng.NormFloat64()))
			}
		}
		kk := snap["l"].Cols() - 1
		g := 2 * float64(kk+2) * u / (1 - float64(kk+2)*u)
		ev, err := NewEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := newRefEvaluator(def)
		if err != nil {
			t.Fatal(err)
		}
		src := NewSegmentedSource(snap)
		shape := dnn.Shape{C: def.InC, H: def.InH, W: def.InW}
		for prefix := 1; prefix <= 3; prefix++ {
			w := boundsAt(t, def, src, prefix)
			// mag runs the layer on |x| with weights max(|lo|,|hi|): the sum
			// of |w|·|x| over every weight in the box, bias included.
			abs := w.Lo["l"].Clone()
			for i, l := range abs.Data() {
				abs.Data()[i] = max(l, -l, w.Hi["l"].Data()[i], -w.Hi["l"].Data()[i])
			}
			magNet := networkWith(t, def, map[string]*tensor.Matrix{"l": abs})
			for seed := int64(0); seed < 3; seed++ {
				in := randIn(50+seed, shape)
				lo, hi, err := ev.Forward(in, w)
				if err != nil {
					t.Fatal(err)
				}
				rlo, rhi, err := ref.Forward(in, w)
				if err != nil {
					t.Fatal(err)
				}
				absIn := in.Clone()
				for i, v := range absIn.Data {
					absIn.Data[i] = max(v, -v)
				}
				mag := magNet.Logits(absIn).Data
				for i := range lo {
					rad := (float64(hi[i]) - float64(lo[i])) / 2
					refRad := (float64(rhi[i]) - float64(rlo[i])) / 2
					ulp := float64(math.Nextafter32(max(hi[i], -lo[i]), float32(math.Inf(1))) - max(hi[i], -lo[i]))
					if allow := 1.5*refRad + 4*g*float64(mag[i]) + 4*ulp; rad > allow {
						t.Fatalf("%s prefix %d seed %d output %d: radius %v above %v (reference %v)",
							def.Name, prefix, seed, i, rad, allow, refRad)
					}
				}
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
// an exact 0: the infinite bound becomes radius MaxFloat32, not +Inf.
func TestPaddedConvInfiniteWeightBound(t *testing.T) {
	def := dnn.ChainDef("inf", 1, 4, 4, 16,
		dnn.LayerSpec{Name: "conv", Kind: dnn.KindConv, Out: 1, K: 3, Pad: 1})
	ev, err := NewEvaluator(def)
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
	ylo, yhi, err := ev.Forward(in, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ylo {
		if math.IsNaN(float64(ylo[i])) || math.IsNaN(float64(yhi[i])) {
			t.Fatalf("output %d is [%v,%v]: NaN from 0·Inf", i, ylo[i], yhi[i])
		}
	}
	// Output (0,0) reads tap (0,0) from the padding and output (2,2) reads it
	// from the zero activation, so both are finite and contain 0.5 times the
	// ones under their other taps (three for (0,0), whose window also holds
	// the zero; eight for (2,2)). Their width is the rounding terms of two
	// 10-term float32 sums, 2·2γ·Σ|w·x| with γ = 2·γ_11: under 72 ulp.
	for _, c := range []struct {
		y, x int
		want float32
	}{{0, 0, 1.5}, {2, 2, 4}} {
		i := c.y*4 + c.x
		l, h := ylo[i], yhi[i]
		ulp := math.Nextafter32(c.want, float32(math.Inf(1))) - c.want
		if !(l <= c.want && c.want <= h) || math.IsInf(float64(h-l), 0) || h-l > 72*ulp {
			t.Errorf("output (%d,%d) is [%v,%v], want a bound of %v at most 72 ulp wide", c.y, c.x, l, h, c.want)
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

// FuzzProgressiveAgreesWithFull builds a small random chain from the fuzz
// input (conv with pad and stride, max and average pooling, every
// activation, then a full layer), picks a prefix, and checks the paper's
// guarantee against dnn.Network itself: no bound is NaN; the logits Network
// computes under weights at the box endpoints and inside the box lie inside
// the bounds (a NaN logit, from an overflow inside Network, only inside
// (-Inf, +Inf)); and a progressive top-1 equals Network.Predict's, unless
// Network's logits are NaN and it has no answer. The high bit of the first
// byte plants one weight of magnitude 2^127, whose bounds are infinite
// below prefix 4 and whose products may overflow.
func FuzzProgressiveAgreesWithFull(f *testing.F) {
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
		for _, name := range ParametricNames(def) { // give the zero-initialised biases values
			m := snap[name]
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
		src := NewSegmentedSource(snap)
		w := boundsAt(t, def, src, prefix)
		lo, hi, err := ev.Forward(x, w)
		if err != nil {
			t.Fatal(err)
		}
		what := fmt.Sprintf("%+v prefix %d", def.Nodes, prefix)
		for i := range lo {
			if lo[i] != lo[i] || hi[i] != hi[i] {
				t.Fatalf("%s: logit %d bounds [%v,%v]", what, i, lo[i], hi[i])
			}
		}
		for which := 0; which < 3; which++ {
			for i, v := range networkWith(t, def, sampleBox(rng, w, which)).Logits(x).Data {
				inside := lo[i] <= v && v <= hi[i]
				if v != v { // an overflow inside Network: only unbounded bounds admit it
					inside = math.IsInf(float64(lo[i]), -1) && math.IsInf(float64(hi[i]), 1)
				}
				if !inside {
					t.Fatalf("%s sample %d: logit %d is %v, outside [%v,%v]", what, which, i, v, lo[i], hi[i])
				}
			}
		}
		full := networkWith(t, def, snap)
		res, err := Progressive(ev, src, x, 1, prefix)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range full.Logits(x).Data {
			if v != v {
				return // Network has no answer to agree with
			}
		}
		if want := full.Predict(x); res.Labels[0] != want {
			t.Fatalf("%s: progressive top-1 %d at prefix %d, full precision %d (logits %v)",
				what, res.Labels[0], res.PrefixUsed, want, full.Logits(x).Data)
		}
	})
}
