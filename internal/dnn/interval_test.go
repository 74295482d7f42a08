package dnn

import (
	"math"
	"math/rand"
	"testing"

	"modelhub/internal/tensor"
)

// randBox returns a random interval: exact, zero, straddling zero, or one
// signed box, so every case of the interval product appears.
func randBox(rng *rand.Rand) (lo, hi float32) {
	v := float32(rng.NormFloat64())
	switch rng.Intn(5) {
	case 0:
		return v, v
	case 1:
		return 0, 0
	case 2:
		return -float32(rng.Float64()), float32(rng.Float64())
	default:
		return v, v + float32(rng.Float64())*0.1
	}
}

// hullProduct is the exact interval product [al,ah]·[bl,bh] in float64,
// where float32 endpoint products are exact.
func hullProduct(al, ah, bl, bh float32) (lo, hi float64) {
	p := []float64{float64(al) * float64(bl), float64(al) * float64(bh), float64(ah) * float64(bl), float64(ah) * float64(bh)}
	return min(p[0], p[1], p[2], p[3]), max(p[0], p[1], p[2], p[3])
}

func ulp32(v float32) float64 {
	v = float32(math.Abs(float64(v)))
	return float64(math.Nextafter32(v, float32(math.Inf(1))) - v)
}

// The midpoint-radius kernel against the interval hull of y = W·x + b,
// summed exactly in float64 (the taps' products are exact): its bounds
// contain the hull, and its radius is at most Rump's 1.5 times the hull
// radius plus the rounding terms γ·Σ(|Wm|+Wr)(|xm|+xr) and a few ulps.
func TestIntervalAffineRumpBound(t *testing.T) {
	in := Shape{C: 2, H: 5, W: 5}
	specs := []LayerSpec{
		{Name: "conv", Kind: KindConv, Out: 3, K: 3, Pad: 1},
		{Name: "conv-s2", Kind: KindConv, Out: 2, K: 2, Stride: 2},
		{Name: "full", Kind: KindFull, Out: 4},
	}
	rng := rand.New(rand.NewSource(1))
	for _, spec := range specs {
		out, err := spec.OutShape(in)
		if err != nil {
			t.Fatal(err)
		}
		rows, cols, err := spec.ParamShape(in)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			wl, wh := tensor.NewMatrix(rows, cols), tensor.NewMatrix(rows, cols)
			for i := range wl.Data() {
				wl.Data()[i], wh.Data()[i] = randBox(rng)
			}
			xl, xh := NewVolume(in), NewVolume(in)
			for i := range xl.Data {
				xl.Data[i], xh.Data[i] = randBox(rng)
			}
			op := newAffineOperands(wl, wh)
			yl, yh := NewVolume(out), NewVolume(out)
			var a intervalArena
			a.affine(spec, op, xl, xh, yl, yh)

			// The reference reads x through the same im2col unroll.
			pixels := out.H * out.W
			kk := cols - 1
			cl, ch := make([]float32, kk*pixels), make([]float32, kk*pixels)
			if spec.Kind == KindConv {
				im2col(xl, cl, spec.K, spec.stride(), spec.Pad, out.H, out.W)
				im2col(xh, ch, spec.K, spec.stride(), spec.Pad, out.H, out.W)
			} else {
				copy(cl, xl.Data)
				copy(ch, xh.Data)
			}
			for o := 0; o < rows; o++ {
				for p := 0; p < pixels; p++ {
					rlo, rhi := float64(wl.At(o, kk)), float64(wh.At(o, kk))
					mag := math.Max(math.Abs(rlo), math.Abs(rhi))
					for k := 0; k < kk; k++ {
						l, h := hullProduct(wl.At(o, k), wh.At(o, k), cl[k*pixels+p], ch[k*pixels+p])
						rlo, rhi = rlo+l, rhi+h
						wm, wr := midRad(wl.At(o, k), wh.At(o, k))
						xm, xr := midRad(cl[k*pixels+p], ch[k*pixels+p])
						mag += (math.Abs(float64(wm)) + float64(wr)) * (math.Abs(float64(xm)) + float64(xr))
					}
					lo, hi := yl.Data[o*pixels+p], yh.Data[o*pixels+p]
					if float64(lo) > rlo || float64(hi) < rhi {
						t.Fatalf("%s output (%d,%d): [%v,%v] misses hull [%v,%v]", spec.Name, o, p, lo, hi, rlo, rhi)
					}
					rad := (float64(hi) - float64(lo)) / 2
					allow := 1.5*(rhi-rlo)/2 + 4*op.gamma*mag + 4*max(ulp32(lo), ulp32(hi)) + 2*underflowPad
					if rad > allow {
						t.Fatalf("%s output (%d,%d): radius %v above %v (hull radius %v, magnitude %v)",
							spec.Name, o, p, rad, allow, (rhi-rlo)/2, mag)
					}
				}
			}
		}
	}
}

func TestMidRad(t *testing.T) {
	inf := float32(math.Inf(1))
	cases := []struct{ l, h, m, r float32 }{
		{1.5, 1.5, 1.5, 0},
		{0, 0, 0, 0},
		{0x1p127, inf, 0, math.MaxFloat32},
		{-inf, 0, 0, math.MaxFloat32},
		{float32(math.NaN()), 1, 0, math.MaxFloat32},
		{-math.MaxFloat32, math.MaxFloat32, 0, math.MaxFloat32},
	}
	for _, c := range cases {
		if m, r := midRad(c.l, c.h); m != c.m || r != c.r {
			t.Errorf("midRad(%v, %v) = (%v, %v), want (%v, %v)", c.l, c.h, m, r, c.m, c.r)
		}
	}
	// A general box: the midpoint-radius interval contains it, and is
	// wider by at most an ulp or two.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		l := float32(rng.NormFloat64())
		h := l + float32(rng.ExpFloat64())
		m, r := midRad(l, h)
		if float64(m)-float64(r) > float64(l) || float64(m)+float64(r) < float64(h) {
			t.Fatalf("midRad(%v, %v) = (%v, %v) misses an endpoint", l, h, m, r)
		}
		if slack := 2*float64(r) - (float64(h) - float64(l)); slack > 4*max(ulp32(l), ulp32(h)) {
			t.Fatalf("midRad(%v, %v) = (%v, %v) is %v too wide", l, h, m, r, slack)
		}
	}
}
