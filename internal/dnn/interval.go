package dnn

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"modelhub/internal/tensor"
)

// IntervalNet runs forward passes of a NetDef in interval arithmetic, with
// every weight known only to lie between a lower and an upper bound (paper
// Sec. IV-D, Problem 2: the weights of a partially retrieved snapshot). It
// walks the same graph as Network, and its bounds hold for Network itself:
// for every choice of weights inside the bounds, the logits Network computes
// in float32 lie inside the returned intervals.
//
// Pooling, activations and add/concat merges are monotone, so their interval
// image is the Network kernel run once on the lower and once on the upper
// bound volume. The float32 operations are Network's own and
// round-to-nearest is monotone, so these bounds need no widening; only
// sigmoid and tanh step one ulp outward, because math.Exp and math.Tanh are
// accurate but not proven monotone. Conv and full layers run the
// midpoint-radius kernel (affine) over the same im2col columns as Network.
// An IntervalNet is safe for concurrent use.
type IntervalNet struct {
	g *graph
	// arenas recycles per-worker scratch (*intervalArena) across calls.
	arenas sync.Pool
}

// NewIntervalNet validates def and resolves its graph; it allocates no
// weights.
func NewIntervalNet(def *NetDef) (*IntervalNet, error) {
	g, err := newGraph(def)
	if err != nil {
		return nil, err
	}
	for _, name := range g.order {
		switch spec := g.specs[name]; spec.Kind {
		case KindConv, KindFull, KindPool, KindReLU, KindSigmoid, KindTanh, KindAdd, KindConcat:
		default:
			return nil, fmt.Errorf("dnn: interval forward cannot run %s node %q before the logits",
				spec.Kind, spec.Name)
		}
		if name == g.logits {
			break
		}
	}
	return &IntervalNet{g: g}, nil
}

// ForwardBatch propagates every exact input of ins through the graph under
// the weight bounds wLo/wHi (keyed by parametric layer name, shaped as in
// Network) and returns the interval of every logit, per example. A trailing
// softmax is not applied: it preserves the order of the logits, and the
// paper's Lemma 4 decides the top-k on the logits directly.
//
// The weight bounds are converted to midpoint-radius form once per call.
// The examples are spread over GOMAXPROCS workers, each reusing one scratch
// arena; an example's bounds do not depend on the batch it rides in or on
// the worker that runs it.
func (n *IntervalNet) ForwardBatch(ins []*Volume, wLo, wHi map[string]*tensor.Matrix) (lo, hi [][]float32, err error) {
	g := n.g
	for i, in := range ins {
		if in.Shape != g.in {
			return nil, nil, fmt.Errorf("dnn: interval input %d shape %v, want %v", i, in.Shape, g.in)
		}
	}
	ops := map[string]*affineOperands{}
	for _, name := range g.order {
		if spec := g.specs[name]; spec.Parametric() {
			bl, bh, err := n.weightBounds(spec, wLo, wHi)
			if err != nil {
				return nil, nil, err
			}
			ops[name] = newAffineOperands(bl, bh)
		}
	}
	lo, hi = make([][]float32, len(ins)), make([][]float32, len(ins))
	var next atomic.Int64
	run := func() {
		a := n.arena()
		defer n.arenas.Put(a)
		for i := int(next.Add(1)) - 1; i < len(ins); i = int(next.Add(1)) - 1 {
			lo[i], hi[i] = n.forward(a, ins[i], ops)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), len(ins)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	run()
	wg.Wait()
	return lo, hi, nil
}

// intervalArena is one worker's scratch: the bound volumes of every node
// (slots drawn from the shared scratch pool, scratch.go) and the operands
// and outputs of the affine kernel. Buffers are allocated on first use and
// reused for every later example.
type intervalArena struct {
	// lo and hi hold each node's output bounds by node name; a merge node's
	// output is its merged input.
	lo, hi map[string]*Volume
	// The current affine node's midpoint and radius operands (xm, t1, t2),
	// their im2col columns, and the two GEMM outputs.
	xm, t1, t2, midCols, radCols, mid, rad []float32
}

func (n *IntervalNet) arena() *intervalArena {
	if a, ok := n.arenas.Get().(*intervalArena); ok {
		return a
	}
	return &intervalArena{lo: map[string]*Volume{}, hi: map[string]*Volume{}}
}

// forward runs one exact input through the graph and returns copies of the
// logit bounds. It panics if the walk never reaches the logits node, an
// invariant newGraph establishes.
func (n *IntervalNet) forward(a *intervalArena, in *Volume, ops map[string]*affineOperands) (lo, hi []float32) {
	g := n.g
	mergeLo := func(name string) *Volume { return scratchMapVolume(a.lo, name, g.inShape[name], false) }
	mergeHi := func(name string) *Volume { return scratchMapVolume(a.hi, name, g.inShape[name], false) }
	for _, name := range g.order {
		xl := g.nodeInput(name, in, a.lo, mergeLo)
		xh := g.nodeInput(name, in, a.hi, mergeHi)
		if spec := g.specs[name]; spec.Kind != KindAdd && spec.Kind != KindConcat {
			out := g.outShape[name]
			yl, yh := scratchMapVolume(a.lo, name, out, false), scratchMapVolume(a.hi, name, out, false)
			switch spec.Kind {
			case KindConv, KindFull:
				a.affine(spec, ops[name], xl, xh, yl, yh)
			case KindPool:
				pool(spec.Mode, spec.K, spec.stride(), xl, yl, nil)
				pool(spec.Mode, spec.K, spec.stride(), xh, yh, nil)
			default:
				activate(spec.Kind, xl.Data, yl.Data)
				activate(spec.Kind, xh.Data, yh.Data)
				if spec.Kind != KindReLU {
					widenSaturating(spec.Kind, xl.Data, xh.Data, yl.Data, yh.Data)
				}
			}
			xl, xh = yl, yh
		}
		if name == g.logits {
			return append([]float32(nil), xl.Data...), append([]float32(nil), xh.Data...)
		}
	}
	panic("dnn: interval forward did not reach the logits node")
}

// grow returns (*buf)[:n], reallocating when its capacity is short.
func grow(buf *[]float32, n int) []float32 {
	if cap(*buf) < n {
		*buf = make([]float32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

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

// widenSaturating steps the sigmoid or tanh bounds [lo, hi] of input
// bounds [xl, xh] one ulp outward, clamped to the function's range. A zero
// bound stays: sigmoid is never below 0, and a float32 tanh of 0 comes only
// from a ±0 input, whose side tanh keeps. An infinite input bound stays
// infinite: it marks a unit whose float32 sum may have overflowed, to NaN
// even, which the function would pass on, not squash.
func widenSaturating(kind string, xl, xh, lo, hi []float32) {
	floor := float32(-1)
	if kind == KindSigmoid {
		floor = 0
	}
	inf := float32(math.Inf(1))
	for i := range lo {
		switch {
		case xl[i] == -inf:
			lo[i] = -inf
		case lo[i] != 0:
			lo[i] = max(floor, below(lo[i]))
		}
		switch {
		case xh[i] == inf:
			hi[i] = inf
		case hi[i] != 0:
			hi[i] = min(1, above(hi[i]))
		}
	}
}

// The affine kernel bounds y = W·x + b for W in a box and x in a box, in
// S. M. Rump's midpoint-radius form (Fast and parallel interval arithmetic,
// BIT 39(3), 1999). Each interval is a midpoint and a radius: Wm, Wr for the
// weights (bias in the last column, as in Network) and xm, xr for the
// inputs (with a constant 1 under the bias). With γ = 2·γ_{kk+2}, a margin
// over the γ_{kk+1} the argument below needs:
//
//	mid = [Wm | bm]·[xm; 1]
//	rad = [|Wm| | Wr]·[xr + γ(2|xm|+xr); (1+γ)(|xm|+xr)]
//
// For any w, x in the boxes, |w·x - Wm·xm| ≤ |Wm|·xr + Wr·(|xm|+xr); the γ
// terms cover the rounding of Network's sequential float32 sum, which is
// within γ_{kk+1}·|w|·|x| of w·x, and of the mid GEMM, within
// γ_{kk+1}·|Wm|·|xm| of Wm·xm. Every rad operand is rounded up, and the rad
// GEMM's own rounding (γ_{2(kk+1)}, all terms non-negative) is undone by
// scaling its result up. So mid ± rad contains Network's computed output,
// and narrowing it outward to float32 keeps it so.
const (
	// underflowPad is added to every radius. The error bounds above assume
	// no underflow; each of the at most 4(kk+1) products of Network's sum
	// and the two GEMMs loses at most 2^-150 to it, far below 2^-100 for
	// any realistic kk. The pad also keeps the bounds of a dead unit clear
	// of subnormals, which would slow the next GEMM down.
	underflowPad = 0x1p-100
	// roundUp64 covers the few float64 roundings (each within 2^-53) made
	// while computing a bound before it is rounded up to float32.
	roundUp64 = 1 + 0x1p-50
)

// affineOperands is a conv or full layer's weight box in midpoint-radius
// form, with the constants of its contraction depth kk.
type affineOperands struct {
	m, kk int
	// mid is m × (kk+1): the weight midpoints, bias last (Network's layout).
	mid []float32
	// rad is m × 2(kk+1): each row is |mid| and then the weight radii.
	rad []float32
	// gamma is γ above; biasT1 and biasT2 are the rad operands of the
	// bias's constant input 1.
	gamma          float64
	biasT1, biasT2 float32
	// radScale undoes the rad GEMM's rounding; a radius above radMax means
	// Network's own sum might overflow, so the bounds become infinite.
	radScale, radMax float64
}

// newAffineOperands converts one layer's weight bounds.
func newAffineOperands(lo, hi *tensor.Matrix) *affineOperands {
	m, cols := lo.Rows(), lo.Cols()
	op := &affineOperands{
		m: m, kk: cols - 1,
		mid:   make([]float32, m*cols),
		rad:   make([]float32, 2*m*cols),
		gamma: 2 * gamma(cols+1),
	}
	ld, hd := lo.Data(), hi.Data()
	for o := 0; o < m; o++ {
		abs, rad := op.rad[2*o*cols:(2*o+1)*cols], op.rad[(2*o+1)*cols:(2*o+2)*cols]
		for j := range abs {
			wm, wr := midRad(ld[o*cols+j], hd[o*cols+j])
			op.mid[o*cols+j] = wm
			abs[j], rad[j] = max(wm, -wm), wr
		}
	}
	op.biasT1, op.biasT2 = op.radOperands(1, 0)
	op.radScale = (1 + 2*gamma(2*cols)) * roundUp64
	op.radMax = op.gamma * 0x1p127 / (1 + op.gamma)
	return op
}

// gamma is Higham's γ_n = n·u/(1-n·u) for float32 (u = 2^-24): n rounded
// float32 operations in a row move a sum by at most γ_n times the sum of
// the magnitudes of its terms.
func gamma(n int) float64 {
	nu := float64(n) * 0x1p-24
	if nu >= 0.5 {
		return math.Inf(1)
	}
	return nu / (1 - nu)
}

// midRad returns a midpoint and radius whose interval contains [l, h]. A
// non-finite bound becomes midpoint 0 and radius MaxFloat32, which covers
// every finite float32 and, unlike +Inf, contributes an exact 0 against a
// zero operand (an im2col padding tap or a zero activation).
func midRad(l, h float32) (m, r float32) {
	if l == h && l-l == 0 {
		return l, 0
	}
	if l-l != 0 || h-h != 0 { // ±Inf or NaN
		return 0, math.MaxFloat32
	}
	m = float32((float64(l) + float64(h)) / 2)
	d1, d2 := float64(h)-float64(m), float64(m)-float64(l)
	if d1 < 0 { // l > h: the same box, reversed
		d1, d2 = -d1, -d2
	}
	if r = up32(max(d1, d2) * roundUp64); r > math.MaxFloat32 {
		return 0, math.MaxFloat32
	}
	return m, r
}

// radOperands returns the two rad GEMM operands of an input with midpoint
// xm and radius xr, each rounded up: xr + γ(2|xm|+xr) and (1+γ)(|xm|+xr).
// An exact zero input gives two exact zeros.
func (op *affineOperands) radOperands(xm, xr float32) (t1, t2 float32) {
	m, r, g := float64(max(xm, -xm)), float64(xr), op.gamma
	return up32((r + g*(2*m+r)) * roundUp64), up32((1 + g) * (m + r) * roundUp64)
}

// up32 rounds a non-negative float64 up to float32. Zero stays zero.
func up32(v float64) float32 {
	f := float32(v)
	if float64(f) < v { // f is finite and non-negative: step one ulp up
		f = math.Float32frombits(math.Float32bits(f) + 1)
	}
	return f
}

// below and above step a float32 one ulp toward -Inf and +Inf; infinities
// in that direction stay.
func below(f float32) float32 {
	switch b := math.Float32bits(f); {
	case f > 0:
		return math.Float32frombits(b - 1)
	case f == 0:
		return -math.SmallestNonzeroFloat32
	case f-f == 0:
		return math.Float32frombits(b + 1)
	}
	return f
}

func above(f float32) float32 { return -below(-f) }

// narrow turns one output's GEMM results into float32 bounds, rounded
// outward. A NaN or oversized radius or a non-finite midpoint gives
// (-Inf, +Inf), so bounds are never NaN.
func (op *affineOperands) narrow(mid, rad float32) (lo, hi float32) {
	r := (float64(rad) + underflowPad) * op.radScale
	if !(r <= op.radMax) || mid-mid != 0 {
		return float32(math.Inf(-1)), float32(math.Inf(1))
	}
	m := float64(mid)
	return below(float32(m - r)), above(float32(m + r))
}

// affine runs a conv or full node: it converts the input bounds [xl, xh] to
// midpoint-radius operands, unrolls them with im2col (conv only), runs the
// mid and rad GEMMs and narrows their outputs into [yl, yh].
func (a *intervalArena) affine(spec LayerSpec, op *affineOperands, xl, xh, yl, yh *Volume) {
	kk, m := op.kk, op.m
	pixels := yl.Shape.H * yl.Shape.W // 1 for a full layer
	midCols := grow(&a.midCols, (kk+1)*pixels)
	radCols := grow(&a.radCols, 2*(kk+1)*pixels)
	t2Cols := radCols[(kk+1)*pixels:]
	if spec.Kind == KindFull {
		op.operands(xl.Data, xh.Data, midCols, radCols, t2Cols)
	} else {
		size := len(xl.Data)
		xm, t1, t2 := grow(&a.xm, size), grow(&a.t1, size), grow(&a.t2, size)
		op.operands(xl.Data, xh.Data, xm, t1, t2)
		k, stride, pad, oh, ow := spec.K, spec.stride(), spec.Pad, yl.Shape.H, yl.Shape.W
		im2col(&Volume{Shape: xl.Shape, Data: xm}, midCols, k, stride, pad, oh, ow)
		im2col(&Volume{Shape: xl.Shape, Data: t1}, radCols, k, stride, pad, oh, ow)
		im2col(&Volume{Shape: xl.Shape, Data: t2}, t2Cols, k, stride, pad, oh, ow)
	}
	fill(midCols[kk*pixels:], 1)
	fill(radCols[kk*pixels:(kk+1)*pixels], op.biasT1)
	fill(t2Cols[kk*pixels:], op.biasT2)
	mid, rad := grow(&a.mid, m*pixels), grow(&a.rad, m*pixels)
	tensor.GemmStrided(m, pixels, kk+1, op.mid, kk+1, midCols, pixels, mid, pixels, false)
	tensor.GemmStrided(m, pixels, 2*(kk+1), op.rad, 2*(kk+1), radCols, pixels, rad, pixels, false)
	for i, v := range mid {
		yl.Data[i], yh.Data[i] = op.narrow(v, rad[i])
	}
}

// operands writes the midpoint and the two rad operands of every input
// bound pair [xl[i], xh[i]].
func (op *affineOperands) operands(xl, xh, xm, t1, t2 []float32) {
	for i, l := range xl {
		m, r := midRad(l, xh[i])
		xm[i] = m
		t1[i], t2[i] = op.radOperands(m, r)
	}
}

func fill(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}
