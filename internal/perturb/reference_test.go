package perturb

// The scalar interval engine below is the reference for dnn.IntervalNet,
// which Evaluator runs. It shares no code with dnn beyond the NetDef: its
// own DAG walk, shape inference, merges, pooling and activations, and conv
// as a direct six-deep loop that skips padding taps. It makes the two
// choices dnn makes: mulInterval takes a zero factor as an exact 0 (0·±Inf
// is not NaN), and average pooling sums in float32. Evaluator must match it
// bit for bit, with +0 and -0 counted equal (equivalence_test.go).

import (
	"fmt"
	"math"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
)

// refVolume is a feature volume whose every element is an interval.
type refVolume struct {
	Shape  dnn.Shape
	Lo, Hi []float32
}

// newRefVolume allocates a zero interval volume.
func newRefVolume(s dnn.Shape) *refVolume {
	n := s.Size()
	return &refVolume{Shape: s, Lo: make([]float32, n), Hi: make([]float32, n)}
}

// exactRef wraps a concrete volume as a degenerate interval volume.
func exactRef(v *dnn.Volume) *refVolume {
	iv := newRefVolume(v.Shape)
	copy(iv.Lo, v.Data)
	copy(iv.Hi, v.Data)
	return iv
}

// mulInterval returns the product interval of [al,ah] x [bl,bh]. A product
// with a zero factor is an exact 0, even against an infinite bound.
func mulInterval(al, ah, bl, bh float32) (float32, float32) {
	mul := func(a, b float32) float64 {
		if a == 0 || b == 0 {
			return 0
		}
		return float64(a) * float64(b)
	}
	p1 := mul(al, bl)
	p2 := mul(al, bh)
	p3 := mul(ah, bl)
	p4 := mul(ah, bh)
	lo := math.Min(math.Min(p1, p2), math.Min(p3, p4))
	hi := math.Max(math.Max(p1, p2), math.Max(p3, p4))
	return float32(lo), float32(hi)
}

// refEvaluator runs interval forward passes of a network definition under
// uncertain weights (paper Problem 2). It mirrors the dnn DAG executor:
// chains are the common case; add/concat merge nodes propagate intervals by
// interval addition and concatenation.
type refEvaluator struct {
	def   *dnn.NetDef
	order []string
	specs map[string]dnn.LayerSpec
	preds map[string][]string
	// inShape/outShape are the static activation shapes per node.
	inShape, outShape map[string]dnn.Shape
	in                dnn.Shape
	sink              string
}

// newRefEvaluator validates the definition and precomputes the DAG shapes.
func newRefEvaluator(def *dnn.NetDef) (*refEvaluator, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	order, err := def.TopoOrder()
	if err != nil {
		return nil, err
	}
	e := &refEvaluator{
		def:      def,
		order:    order,
		specs:    map[string]dnn.LayerSpec{},
		preds:    map[string][]string{},
		inShape:  map[string]dnn.Shape{},
		outShape: map[string]dnn.Shape{},
		in:       dnn.Shape{C: def.InC, H: def.InH, W: def.InW},
	}
	var sinks []string
	for _, l := range def.Nodes {
		e.specs[l.Name] = l
		e.preds[l.Name] = def.Prev(l.Name)
		if len(def.Next(l.Name)) == 0 {
			sinks = append(sinks, l.Name)
		}
	}
	if len(sinks) != 1 {
		return nil, fmt.Errorf("perturb: network needs exactly one sink, got %d", len(sinks))
	}
	e.sink = sinks[0]
	for _, name := range order {
		in, err := e.mergeInputShape(name)
		if err != nil {
			return nil, err
		}
		e.inShape[name] = in
		spec := e.specs[name]
		if spec.Kind == dnn.KindAdd || spec.Kind == dnn.KindConcat {
			e.outShape[name] = in
			continue
		}
		out, err := spec.OutShape(in)
		if err != nil {
			return nil, err
		}
		e.outShape[name] = out
	}
	return e, nil
}

func (e *refEvaluator) mergeInputShape(name string) (dnn.Shape, error) {
	preds := e.preds[name]
	spec := e.specs[name]
	switch {
	case len(preds) == 0:
		return e.in, nil
	case len(preds) == 1:
		return e.outShape[preds[0]], nil
	case spec.Kind == dnn.KindAdd:
		first := e.outShape[preds[0]]
		for _, p := range preds[1:] {
			if e.outShape[p] != first {
				return dnn.Shape{}, fmt.Errorf("perturb: add node %q input shapes differ", name)
			}
		}
		return first, nil
	case spec.Kind == dnn.KindConcat:
		first := e.outShape[preds[0]]
		total := 0
		for _, p := range preds {
			s := e.outShape[p]
			if s.H != first.H || s.W != first.W {
				return dnn.Shape{}, fmt.Errorf("perturb: concat node %q spatial extents differ", name)
			}
			total += s.C
		}
		return dnn.Shape{C: total, H: first.H, W: first.W}, nil
	default:
		return dnn.Shape{}, fmt.Errorf("perturb: node %q (%s) has %d inputs; only add/concat merge",
			name, spec.Kind, len(preds))
	}
}

// Forward propagates the input through the DAG under the weight bounds and
// returns the interval of every output logit. A trailing softmax layer is
// skipped: softmax preserves the ordering of logits, so Lemma 4 applies to
// the logits directly.
func (e *refEvaluator) Forward(in *dnn.Volume, w WeightBounds) (lo, hi []float32, err error) {
	if in.Shape != e.in {
		return nil, nil, fmt.Errorf("perturb: input shape %v, want %v", in.Shape, e.in)
	}
	outputs := map[string]*refVolume{}
	logitsNode := e.sink
	if e.specs[e.sink].Kind == dnn.KindSoftmax {
		if preds := e.preds[e.sink]; len(preds) == 1 {
			logitsNode = preds[0]
		}
	}
	for _, name := range e.order {
		x := e.nodeInput(name, in, outputs)
		spec := e.specs[name]
		inShape, outShape := e.inShape[name], e.outShape[name]
		var y *refVolume
		switch spec.Kind {
		case dnn.KindConv:
			y, err = e.conv(spec, inShape, outShape, x, w)
		case dnn.KindFull:
			y, err = e.full(spec, inShape, outShape, x, w)
		case dnn.KindPool:
			y = e.pool(spec, inShape, outShape, x)
		case dnn.KindReLU, dnn.KindSigmoid, dnn.KindTanh:
			y = e.activate(spec, x)
		case dnn.KindAdd, dnn.KindConcat:
			y = x // nodeInput already merged the predecessors
		case dnn.KindSoftmax:
			y = x // ordering-preserving; Lemma 4 applies to logits
		default:
			err = fmt.Errorf("perturb: unsupported layer kind %q", spec.Kind)
		}
		if err != nil {
			return nil, nil, err
		}
		outputs[name] = y
		if name == logitsNode {
			return y.Lo, y.Hi, nil
		}
	}
	out := outputs[logitsNode]
	return out.Lo, out.Hi, nil
}

// nodeInput assembles a node's interval input from its predecessors,
// merging for add (interval sums) and concat (concatenation).
func (e *refEvaluator) nodeInput(name string, in *dnn.Volume, outputs map[string]*refVolume) *refVolume {
	preds := e.preds[name]
	switch {
	case len(preds) == 0:
		return exactRef(in)
	case len(preds) == 1:
		return outputs[preds[0]]
	case e.specs[name].Kind == dnn.KindAdd:
		out := newRefVolume(e.inShape[name])
		for _, p := range preds {
			pv := outputs[p]
			for i := range out.Lo {
				out.Lo[i] += pv.Lo[i]
				out.Hi[i] += pv.Hi[i]
			}
		}
		return out
	default: // concat
		out := newRefVolume(e.inShape[name])
		off := 0
		for _, p := range preds {
			pv := outputs[p]
			copy(out.Lo[off:], pv.Lo)
			copy(out.Hi[off:], pv.Hi)
			off += pv.Shape.Size()
		}
		return out
	}
}

func (e *refEvaluator) weightRows(spec dnn.LayerSpec, in dnn.Shape, w WeightBounds) (lo, hi *tensor.Matrix, err error) {
	rows, cols, err := spec.ParamShape(in)
	if err != nil {
		return nil, nil, err
	}
	lo, okLo := w.Lo[spec.Name]
	hi, okHi := w.Hi[spec.Name]
	if !okLo || !okHi {
		return nil, nil, fmt.Errorf("perturb: missing weight bounds for layer %q", spec.Name)
	}
	if lo.Rows() != rows || lo.Cols() != cols || hi.Rows() != rows || hi.Cols() != cols {
		return nil, nil, fmt.Errorf("perturb: weight bounds for %q are %dx%d, want %dx%d",
			spec.Name, lo.Rows(), lo.Cols(), rows, cols)
	}
	return lo, hi, nil
}

func (e *refEvaluator) conv(spec dnn.LayerSpec, in, out dnn.Shape, x *refVolume, w WeightBounds) (*refVolume, error) {
	wl, wh, err := e.weightRows(spec, in, w)
	if err != nil {
		return nil, err
	}
	stride := spec.Stride
	if stride == 0 {
		stride = 1
	}
	k, pad := spec.K, spec.Pad
	biasCol := wl.Cols() - 1
	y := newRefVolume(out)
	oi := 0
	for oc := 0; oc < out.C; oc++ {
		rl, rh := wl.Row(oc), wh.Row(oc)
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				sumLo := float64(rl[biasCol])
				sumHi := float64(rh[biasCol])
				for ic := 0; ic < in.C; ic++ {
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= in.W {
								continue
							}
							wi := (ic*k+ky)*k + kx
							xi := (ic*in.H+iy)*in.W + ix
							l, h := mulInterval(rl[wi], rh[wi], x.Lo[xi], x.Hi[xi])
							sumLo += float64(l)
							sumHi += float64(h)
						}
					}
				}
				y.Lo[oi] = float32(sumLo)
				y.Hi[oi] = float32(sumHi)
				oi++
			}
		}
	}
	return y, nil
}

func (e *refEvaluator) full(spec dnn.LayerSpec, in, out dnn.Shape, x *refVolume, w WeightBounds) (*refVolume, error) {
	wl, wh, err := e.weightRows(spec, in, w)
	if err != nil {
		return nil, err
	}
	biasCol := wl.Cols() - 1
	y := newRefVolume(out)
	for o := 0; o < out.C; o++ {
		rl, rh := wl.Row(o), wh.Row(o)
		sumLo := float64(rl[biasCol])
		sumHi := float64(rh[biasCol])
		for i := range x.Lo {
			l, h := mulInterval(rl[i], rh[i], x.Lo[i], x.Hi[i])
			sumLo += float64(l)
			sumHi += float64(h)
		}
		y.Lo[o] = float32(sumLo)
		y.Hi[o] = float32(sumHi)
	}
	return y, nil
}

func (e *refEvaluator) pool(spec dnn.LayerSpec, in, out dnn.Shape, x *refVolume) *refVolume {
	stride := spec.Stride
	if stride == 0 {
		stride = spec.K
	}
	k := spec.K
	y := newRefVolume(out)
	oi := 0
	for c := 0; c < out.C; c++ {
		for oy := 0; oy < out.H; oy++ {
			for ox := 0; ox < out.W; ox++ {
				if spec.Mode == dnn.PoolMax {
					lo := float32(math.Inf(-1))
					hi := float32(math.Inf(-1))
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= in.W {
								continue
							}
							xi := (c*in.H+iy)*in.W + ix
							if x.Lo[xi] > lo {
								lo = x.Lo[xi]
							}
							if x.Hi[xi] > hi {
								hi = x.Hi[xi]
							}
						}
					}
					y.Lo[oi], y.Hi[oi] = lo, hi
				} else {
					var sumLo, sumHi float32
					n := 0
					for ky := 0; ky < k; ky++ {
						iy := oy*stride + ky
						if iy >= in.H {
							continue
						}
						for kx := 0; kx < k; kx++ {
							ix := ox*stride + kx
							if ix >= in.W {
								continue
							}
							xi := (c*in.H+iy)*in.W + ix
							sumLo += x.Lo[xi]
							sumHi += x.Hi[xi]
							n++
						}
					}
					y.Lo[oi] = sumLo / float32(n)
					y.Hi[oi] = sumHi / float32(n)
				}
				oi++
			}
		}
	}
	return y
}

// activate applies a monotone activation to both bounds.
func (e *refEvaluator) activate(spec dnn.LayerSpec, x *refVolume) *refVolume {
	y := newRefVolume(x.Shape)
	var f func(float32) float32
	switch spec.Kind {
	case dnn.KindReLU:
		f = func(v float32) float32 {
			if v > 0 {
				return v
			}
			return 0
		}
	case dnn.KindSigmoid:
		f = func(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }
	case dnn.KindTanh:
		f = func(v float32) float32 { return float32(math.Tanh(float64(v))) }
	}
	for i := range x.Lo {
		y.Lo[i] = f(x.Lo[i])
		y.Hi[i] = f(x.Hi[i])
	}
	return y
}
