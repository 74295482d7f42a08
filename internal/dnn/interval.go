package dnn

import (
	"fmt"
	"math"

	"modelhub/internal/tensor"
)

// IntervalNet runs forward passes of a NetDef in interval arithmetic, with
// every weight known only to lie between a lower and an upper bound (paper
// Sec. IV-D, Problem 2: the weights of a partially retrieved snapshot). It
// walks the same graph as Network. Pooling, activations and add/concat
// merges are monotone, so their interval image is the Network kernel run
// once on the lower and once on the upper bound volume; conv and full layers
// run intervalAffine over the same im2col columns. It holds no weights and
// no mutable state, so one IntervalNet is safe for concurrent use.
type IntervalNet struct {
	g *graph
}

// NewIntervalNet validates def and resolves its graph; it allocates no
// weights.
func NewIntervalNet(def *NetDef) (*IntervalNet, error) {
	g, err := newGraph(def)
	if err != nil {
		return nil, err
	}
	return &IntervalNet{g: g}, nil
}

// Forward propagates the exact input in through the graph under the weight
// bounds wLo/wHi (keyed by parametric layer name, shaped as in Network) and
// returns the interval of every logit. A trailing softmax is not applied:
// it preserves the order of the logits, and the paper's Lemma 4 decides the
// top-k on the logits directly.
func (n *IntervalNet) Forward(in *Volume, wLo, wHi map[string]*tensor.Matrix) (lo, hi []float32, err error) {
	g := n.g
	if in.Shape != g.in {
		return nil, nil, fmt.Errorf("dnn: interval input shape %v, want %v", in.Shape, g.in)
	}
	fwdLo, fwdHi := map[string]*Volume{}, map[string]*Volume{}
	for _, name := range g.order {
		xl := g.nodeInput(name, in, fwdLo, n.newInput)
		xh := g.nodeInput(name, in, fwdHi, n.newInput)
		// An add or concat node's output is its merged input.
		if spec := g.specs[name]; spec.Kind != KindAdd && spec.Kind != KindConcat {
			if xl, xh, err = n.layer(spec, xl, xh, wLo, wHi); err != nil {
				return nil, nil, err
			}
		}
		if name == g.logits {
			return xl.Data, xh.Data, nil
		}
		fwdLo[name], fwdHi[name] = xl, xh
	}
	return nil, nil, fmt.Errorf("dnn: logits node %q not reached", g.logits)
}

// layer runs one ordinary node on the input bounds [xl, xh] and returns its
// output bounds.
func (n *IntervalNet) layer(spec LayerSpec, xl, xh *Volume, wLo, wHi map[string]*tensor.Matrix) (yl, yh *Volume, err error) {
	out := n.g.outShape[spec.Name]
	yl, yh = NewVolume(out), NewVolume(out)
	switch spec.Kind {
	case KindConv, KindFull:
		bl, bh, err := n.weightBounds(spec, wLo, wHi)
		if err != nil {
			return nil, nil, err
		}
		kk := bl.Cols() - 1
		if spec.Kind == KindFull {
			intervalAffine(out.C, 1, kk, bl.Data(), bh.Data(), xl.Data, xh.Data, yl.Data, yh.Data)
			break
		}
		// Unroll each bound volume into its C·k·k × outH·outW columns.
		pixels := out.H * out.W
		cl, ch := tensor.NewMatrix(kk, pixels), tensor.NewMatrix(kk, pixels)
		im2col(xl, cl, spec.K, spec.stride(), spec.Pad, out.H, out.W)
		im2col(xh, ch, spec.K, spec.stride(), spec.Pad, out.H, out.W)
		intervalAffine(out.C, pixels, kk, bl.Data(), bh.Data(), cl.Data(), ch.Data(), yl.Data, yh.Data)
	case KindPool:
		pool(spec.Mode, spec.K, spec.stride(), xl, yl, nil)
		pool(spec.Mode, spec.K, spec.stride(), xh, yh, nil)
	case KindReLU, KindSigmoid, KindTanh:
		activate(spec.Kind, xl.Data, yl.Data)
		activate(spec.Kind, xh.Data, yh.Data)
	default:
		return nil, nil, fmt.Errorf("dnn: interval forward cannot run %s node %q before the logits",
			spec.Kind, spec.Name)
	}
	return yl, yh, nil
}

// newInput allocates the merged input volume of node name.
func (n *IntervalNet) newInput(name string) *Volume { return NewVolume(n.g.inShape[name]) }

// weightBounds returns the bound matrices of a parametric layer, checking
// their shape against the layer's input.
func (n *IntervalNet) weightBounds(spec LayerSpec, wLo, wHi map[string]*tensor.Matrix) (lo, hi *tensor.Matrix, err error) {
	rows, cols, err := spec.ParamShape(n.g.inShape[spec.Name])
	if err != nil {
		return nil, nil, err
	}
	lo, okLo := wLo[spec.Name]
	hi, okHi := wHi[spec.Name]
	if !okLo || !okHi {
		return nil, nil, fmt.Errorf("dnn: missing weight bounds for layer %q", spec.Name)
	}
	if lo.Rows() != rows || lo.Cols() != cols || hi.Rows() != rows || hi.Cols() != cols {
		return nil, nil, fmt.Errorf("dnn: weight bounds for %q are %dx%d, want %dx%d",
			spec.Name, lo.Rows(), lo.Cols(), rows, cols)
	}
	return lo, hi, nil
}

// intervalAffine is the interval image of y = W·x + b for m outputs over n
// columns: weights lie in [wl, wh] (m × kk+1, bias in the last column) and
// inputs in [xl, xh] (kk × n, row-major). Each output sums its bias and then
// the product intervals for k ascending in float64, narrowing once to
// float32 in yl/yh (m × n).
func intervalAffine(m, n, kk int, wl, wh, xl, xh, yl, yh []float32) {
	accLo, accHi := make([]float64, n), make([]float64, n)
	for o := 0; o < m; o++ {
		rl, rh := wl[o*(kk+1):(o+1)*(kk+1)], wh[o*(kk+1):(o+1)*(kk+1)]
		for j := range accLo {
			accLo[j], accHi[j] = float64(rl[kk]), float64(rh[kk])
		}
		for k := 0; k < kk; k++ {
			al, ah := rl[k], rh[k]
			cl, ch := xl[k*n:(k+1)*n], xh[k*n:(k+1)*n]
			for j, bl := range cl {
				l, h := mulInterval(al, ah, bl, ch[j])
				accLo[j] += float64(l)
				accHi[j] += float64(h)
			}
		}
		for j := range accLo {
			yl[o*n+j], yh[o*n+j] = float32(accLo[j]), float32(accHi[j])
		}
	}
}

// mulInterval returns the product interval of [al,ah] × [bl,bh]. The
// float32 endpoint products are the exact float64 ones rounded to nearest,
// and rounding preserves min and max. An endpoint product is NaN only for
// 0·±Inf or a NaN bound; mulIntervalSpecial handles those rare cases.
func mulInterval(al, ah, bl, bh float32) (lo, hi float32) {
	p1, p2, p3, p4 := al*bl, al*bh, ah*bl, ah*bh
	lo, hi = min(p1, p2, p3, p4), max(p1, p2, p3, p4)
	if lo != lo || hi != hi {
		return mulIntervalSpecial(al, ah, bl, bh)
	}
	return lo, hi
}

// mulIntervalSpecial is mulInterval in float64 with math.Min/math.Max
// ordering (an infinite product outranks a NaN one), which the fast path
// matches on every NaN-free input. A product with a zero factor is an exact
// 0 even against an infinite bound: a zero input (an im2col padding tap, a
// ReLU floor) or a zero weight contributes nothing.
func mulIntervalSpecial(al, ah, bl, bh float32) (lo, hi float32) {
	mul := func(a, b float32) float64 {
		if a == 0 || b == 0 {
			return 0
		}
		return float64(a) * float64(b)
	}
	p1, p2, p3, p4 := mul(al, bl), mul(al, bh), mul(ah, bl), mul(ah, bh)
	return float32(math.Min(math.Min(p1, p2), math.Min(p3, p4))),
		float32(math.Max(math.Max(p1, p2), math.Max(p3, p4)))
}
