package dnn

import (
	"math"
	"math/rand"
	"testing"
)

// forwardNaive and backwardNaive are the reference six-deep scalar loops the
// production im2col/GEMM kernel (convLayer.Forward/Backward) is checked
// against. They share the layer's scratch slots, so a layer must be driven
// through one kernel pair only.
func (l *convLayer) forwardNaive(in *Volume) *Volume {
	l.lastIn = in
	// Every output element is assigned below, so no zero-on-reuse.
	out := scratchVolume(&l.outBuf, l.out, false)
	k, pad := l.spec.K, l.spec.Pad
	biasCol := l.w.Cols() - 1
	for oc := 0; oc < l.out.C; oc++ {
		wrow := l.w.Row(oc)
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				sum := wrow[biasCol]
				for ic := 0; ic < l.in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky - pad
						if iy < 0 || iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx - pad
							if ix < 0 || ix >= l.in.W {
								continue
							}
							sum += wrow[(ic*k+ky)*k+kx] * in.At(ic, iy, ix)
						}
					}
				}
				out.Set(oc, oy, ox, sum)
			}
		}
	}
	return out
}

func (l *convLayer) backwardNaive(dOut *Volume) *Volume {
	in := l.lastIn
	dIn := scratchVolume(&l.dInBuf, l.in, true) // scatter-add target
	k, pad := l.spec.K, l.spec.Pad
	biasCol := l.w.Cols() - 1
	for oc := 0; oc < l.out.C; oc++ {
		wrow := l.w.Row(oc)
		grow := l.g.Row(oc)
		for oy := 0; oy < l.out.H; oy++ {
			for ox := 0; ox < l.out.W; ox++ {
				d := dOut.At(oc, oy, ox)
				if d == 0 {
					continue
				}
				grow[biasCol] += d
				for ic := 0; ic < l.in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*l.stride + ky - pad
						if iy < 0 || iy >= l.in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*l.stride + kx - pad
							if ix < 0 || ix >= l.in.W {
								continue
							}
							idx := (ic*k+ky)*k + kx
							grow[idx] += d * in.At(ic, iy, ix)
							dIn.Data[(ic*l.in.H+iy)*l.in.W+ix] += d * wrow[idx]
						}
					}
				}
			}
		}
	}
	return dIn
}

// newConvPair builds two identically-weighted conv layers for the same spec
// so the im2col and naive kernels can be run side by side.
func newConvPair(t *testing.T, spec LayerSpec, in Shape, rng *rand.Rand) (a, b *convLayer) {
	t.Helper()
	mk := func() *convLayer {
		l, err := buildLayer(spec, in)
		if err != nil {
			t.Fatalf("buildLayer(%+v, %v): %v", spec, in, err)
		}
		return l.(*convLayer)
	}
	a, b = mk(), mk()
	w := a.w.Data()
	for i := range w {
		w[i] = float32(rng.NormFloat64())
	}
	copy(b.w.Data(), w)
	return a, b
}

func randVol(rng *rand.Rand, s Shape) *Volume {
	v := NewVolume(s)
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestConvIm2colMatchesNaive is the kernel-equivalence property test: across
// random shapes, strides, and pads (including pad > 0 and stride > 1), the
// im2col/GEMM kernel must reproduce the naive six-loop kernel
//
//   - bit-exactly for the forward output, the weight gradient, and the bias
//     gradient (the GEMM sums every output element in the naive kernel's
//     exact term order, and zero-padding terms add exact zeros), and
//   - within a small relative tolerance for the input gradient: dIn flows
//     through the intermediate dcols = Wᵀ·dOut matrix, which sums the same
//     terms under a different association (per-pixel over output channels
//     first), so the two kernels round differently at the last ULPs.
//
// Gradients are compared after a single backward pass from zeroed
// accumulators; accumulating further passes re-associates the running sums.
func TestConvIm2colMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		inShape := Shape{C: 1 + rng.Intn(3), H: 3 + rng.Intn(8), W: 3 + rng.Intn(8)}
		spec := LayerSpec{
			Name: "conv", Kind: KindConv,
			Out:    1 + rng.Intn(4),
			K:      1 + rng.Intn(3),
			Stride: 1 + rng.Intn(2),
			Pad:    rng.Intn(3),
		}
		if _, err := spec.OutShape(inShape); err != nil {
			continue // degenerate geometry; not a valid layer
		}
		fast, naive := newConvPair(t, spec, inShape, rng)
		in := randVol(rng, inShape)

		outFast := fast.Forward(in)
		outNaive := naive.forwardNaive(in)
		if !equalBits(outFast.Data, outNaive.Data) {
			t.Fatalf("trial %d (%+v in %v): forward differs", trial, spec, inShape)
		}

		dOut := randVol(rng, fast.OutShape())
		dInFast := fast.Backward(dOut)
		dInNaive := naive.backwardNaive(dOut)

		if !fast.g.Equal(naive.g) {
			t.Fatalf("trial %d (%+v in %v): weight gradient differs", trial, spec, inShape)
		}
		if !approxEqualRel(dInFast.Data, dInNaive.Data, 1e-5) {
			t.Fatalf("trial %d (%+v in %v): input gradient differs beyond tolerance", trial, spec, inShape)
		}
	}
}

// TestConvIm2colStridePadEdges pins the awkward geometries explicitly.
func TestConvIm2colStridePadEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		in   Shape
		spec LayerSpec
	}{
		{Shape{C: 2, H: 7, W: 7}, LayerSpec{Name: "c", Kind: KindConv, Out: 3, K: 3, Stride: 2, Pad: 0}},
		{Shape{C: 2, H: 7, W: 7}, LayerSpec{Name: "c", Kind: KindConv, Out: 3, K: 3, Stride: 2, Pad: 2}},
		{Shape{C: 1, H: 5, W: 5}, LayerSpec{Name: "c", Kind: KindConv, Out: 2, K: 5, Stride: 1, Pad: 2}},
		{Shape{C: 3, H: 4, W: 6}, LayerSpec{Name: "c", Kind: KindConv, Out: 2, K: 1, Stride: 2, Pad: 0}},
		{Shape{C: 1, H: 3, W: 3}, LayerSpec{Name: "c", Kind: KindConv, Out: 1, K: 3, Stride: 1, Pad: 2}},
	}
	for _, c := range cases {
		fast, naive := newConvPair(t, c.spec, c.in, rng)
		in := randVol(rng, c.in)
		outFast := fast.Forward(in)
		dInFast := fast.Backward(randVol(rand.New(rand.NewSource(9)), fast.OutShape()))
		outNaive := naive.forwardNaive(in)
		dInNaive := naive.backwardNaive(randVol(rand.New(rand.NewSource(9)), naive.OutShape()))
		if !equalBits(outFast.Data, outNaive.Data) {
			t.Fatalf("%+v in %v: forward differs", c.spec, c.in)
		}
		if !fast.g.Equal(naive.g) {
			t.Fatalf("%+v in %v: weight gradient differs", c.spec, c.in)
		}
		if !approxEqualRel(dInFast.Data, dInNaive.Data, 1e-5) {
			t.Fatalf("%+v in %v: input gradient differs", c.spec, c.in)
		}
	}
}

// TestFullLayerKernelMatchesScalar guards the fullLayer GEMM/axpy routing
// against the original scalar loops.
func TestFullLayerKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := Shape{C: 5, H: 3, W: 2}
	spec := LayerSpec{Name: "ip", Kind: KindFull, Out: 7}
	l, err := buildLayer(spec, in)
	if err != nil {
		t.Fatal(err)
	}
	fl := l.(*fullLayer)
	for i := range fl.w.Data() {
		fl.w.Data()[i] = float32(rng.NormFloat64())
	}
	x := randVol(rng, in)
	out := fl.Forward(x)
	biasCol := fl.w.Cols() - 1
	for o := 0; o < spec.Out; o++ {
		row := fl.w.Row(o)
		sum := row[biasCol]
		for i, v := range x.Data {
			sum += row[i] * v
		}
		if math.Float32bits(sum) != math.Float32bits(out.Data[o]) {
			t.Fatalf("out[%d] = %v, scalar loop gives %v", o, out.Data[o], sum)
		}
	}
}

func equalBits(a, b []float32) bool {
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

func approxEqualRel(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		d := math.Abs(float64(a[i]) - float64(b[i]))
		scale := math.Max(1, math.Max(math.Abs(float64(a[i])), math.Abs(float64(b[i]))))
		if d/scale > tol {
			return false
		}
	}
	return true
}
