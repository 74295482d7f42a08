package dnn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"modelhub/internal/tensor"
)

// Network is a built, runnable DNN: the layer DAG of a NetDef with
// allocated weight matrices. Chains are the common case (paper Table I);
// general DAGs with add/concat merge nodes (residual/skip connections) run
// through the same executor. Forward/Backward cache state, so a Network is
// not safe for concurrent use.
type Network struct {
	Def *NetDef
	// order is the node execution order (topological).
	order []string
	specs map[string]LayerSpec
	// preds lists each node's predecessors in edge-declaration order
	// (which fixes the channel order of concat merges).
	preds             map[string][]string
	layers            map[string]runtimeLayer // ordinary (non-merge) nodes only
	inShape, outShape map[string]Shape
	source, sink      string
	layerList         []runtimeLayer // ordinary layers in execution order
	// fwd caches node outputs of the latest forward pass for gradient
	// routing through merge nodes.
	fwd map[string]*Volume
	// Persistent scratch (scratch.go): merge-node input volumes, backward
	// gradient accumulators keyed by node, the fused-loss logits gradient,
	// and the softmax probability buffer. ReleaseScratch returns them all to
	// the shared arena pool.
	mergeBuf map[string]*Volume
	bwdBuf   map[string]*Volume
	gradBuf  *Volume
	probs    []float32
}

// Build constructs a runtime network for def, initializing all weights with
// Xavier initialization from rng (pass a deterministic source for
// reproducible experiments).
func Build(def *NetDef, rng *rand.Rand) (*Network, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	order, err := def.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := &Network{
		Def:      def,
		order:    order,
		specs:    map[string]LayerSpec{},
		preds:    map[string][]string{},
		layers:   map[string]runtimeLayer{},
		inShape:  map[string]Shape{},
		outShape: map[string]Shape{},
		fwd:      map[string]*Volume{},
		mergeBuf: map[string]*Volume{},
		bwdBuf:   map[string]*Volume{},
	}
	for _, l := range def.Nodes {
		n.specs[l.Name] = l
		n.preds[l.Name] = def.Prev(l.Name)
	}
	// Exactly one source (receives the network input) and one sink (the
	// prediction output).
	var sources, sinks []string
	for _, name := range order {
		if len(n.preds[name]) == 0 {
			sources = append(sources, name)
		}
		if len(def.Next(name)) == 0 {
			sinks = append(sinks, name)
		}
	}
	if len(sources) != 1 || len(sinks) != 1 {
		return nil, fmt.Errorf("%w: runtime needs exactly one source and one sink, got %d/%d",
			ErrNetDef, len(sources), len(sinks))
	}
	n.source, n.sink = sources[0], sinks[0]

	netIn := Shape{C: def.InC, H: def.InH, W: def.InW}
	for _, name := range order {
		spec := n.specs[name]
		in, err := n.mergeInputShape(name, netIn)
		if err != nil {
			return nil, err
		}
		n.inShape[name] = in
		if spec.Kind == KindAdd || spec.Kind == KindConcat {
			n.outShape[name] = in
			continue
		}
		l, err := buildLayer(spec, in)
		if err != nil {
			return nil, err
		}
		if w := l.Weights(); w != nil {
			fanIn := w.Cols() - 1
			fanOut := w.Rows()
			init := tensor.XavierInit(rng, w.Rows(), w.Cols(), fanIn, fanOut)
			copy(w.Data(), init.Data())
			// Zero the bias column.
			for r := 0; r < w.Rows(); r++ {
				w.Set(r, w.Cols()-1, 0)
			}
		}
		n.layers[name] = l
		n.layerList = append(n.layerList, l)
		n.outShape[name] = l.OutShape()
	}
	if last := n.outShape[n.sink]; def.Labels > 0 && last.Size() != def.Labels {
		return nil, fmt.Errorf("%w: final layer produces %d outputs, want %d labels", ErrNetDef, last.Size(), def.Labels)
	}
	return n, nil
}

// mergeInputShape resolves the input shape of a node from its predecessors'
// output shapes (or the network input for the source).
func (n *Network) mergeInputShape(name string, netIn Shape) (Shape, error) {
	preds := n.preds[name]
	spec := n.specs[name]
	switch {
	case len(preds) == 0:
		return netIn, nil
	case len(preds) == 1:
		return n.outShape[preds[0]], nil
	case spec.Kind == KindAdd:
		first := n.outShape[preds[0]]
		for _, p := range preds[1:] {
			if n.outShape[p] != first {
				return Shape{}, fmt.Errorf("%w: add node %q inputs %v and %v differ",
					ErrNetDef, name, first, n.outShape[p])
			}
		}
		return first, nil
	case spec.Kind == KindConcat:
		first := n.outShape[preds[0]]
		total := 0
		for _, p := range preds {
			s := n.outShape[p]
			if s.H != first.H || s.W != first.W {
				return Shape{}, fmt.Errorf("%w: concat node %q spatial extents %v and %v differ",
					ErrNetDef, name, first, s)
			}
			total += s.C
		}
		return Shape{C: total, H: first.H, W: first.W}, nil
	default:
		return Shape{}, fmt.Errorf("%w: node %q (%s) has %d inputs; only add/concat merge",
			ErrNetDef, name, spec.Kind, len(preds))
	}
}

// Layers returns the runtime layers (merge nodes excluded) in execution
// order.
func (n *Network) Layers() []runtimeLayer { return n.layerList }

// nodeInput assembles a node's input volume from the forward cache.
func (n *Network) nodeInput(name string, in *Volume) *Volume {
	preds := n.preds[name]
	switch {
	case len(preds) == 0:
		return in
	case len(preds) == 1:
		return n.fwd[preds[0]]
	case n.specs[name].Kind == KindAdd:
		// Copy the first predecessor, then add the rest: identical sums to
		// zero-then-accumulate, with no zero-on-reuse needed.
		out := scratchMapVolume(n.mergeBuf, name, n.inShape[name], false)
		copy(out.Data, n.fwd[preds[0]].Data)
		for _, p := range preds[1:] {
			for i, v := range n.fwd[p].Data {
				out.Data[i] += v
			}
		}
		return out
	default: // concat — predecessor spans cover the whole buffer
		out := scratchMapVolume(n.mergeBuf, name, n.inShape[name], false)
		off := 0
		for _, p := range preds {
			copy(out.Data[off:], n.fwd[p].Data)
			off += n.fwd[p].Shape.Size()
		}
		return out
	}
}

// forwardUpTo runs nodes in order, stopping after `stop` (inclusive), and
// returns its output.
func (n *Network) forwardUpTo(in *Volume, stop string) *Volume {
	for _, name := range n.order {
		x := n.nodeInput(name, in)
		if l, ok := n.layers[name]; ok {
			x = l.Forward(x)
		}
		n.fwd[name] = x
		if name == stop {
			return x
		}
	}
	return n.fwd[n.sink]
}

// Forward runs the full DAG on an input volume and returns the output. The
// returned volume is the caller's: it is a copy of the (small) sink
// activation, detached from the network's internal scratch buffers, so it
// survives subsequent passes.
func (n *Network) Forward(in *Volume) *Volume {
	return n.forwardUpTo(in, n.sink).Clone()
}

// logitsNode is where the fused softmax-cross-entropy loss attaches: the
// sink, or its predecessor when the sink is a softmax layer.
func (n *Network) logitsNode() string {
	if n.specs[n.sink].Kind == KindSoftmax {
		if preds := n.preds[n.sink]; len(preds) == 1 {
			return preds[0]
		}
	}
	return n.sink
}

// Logits runs the DAG but stops before a trailing softmax layer, returning
// raw scores — what the fused softmax-cross-entropy loss consumes. Like
// Forward, the returned volume is a caller-owned copy.
func (n *Network) Logits(in *Volume) *Volume {
	return n.forwardUpTo(in, n.logitsNode()).Clone()
}

// Predict returns the argmax label for an input.
func (n *Network) Predict(in *Volume) int {
	out := n.forwardUpTo(in, n.sink) // argmax only — no copy needed
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range out.Data {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

// ForwardBatch runs the full DAG on each input in order and returns the
// outputs. Layer-internal scratch (conv column buffers) is allocated once on
// the first example and reused for the rest, so batched evaluation amortizes
// buffer setup that per-call users pay every time.
func (n *Network) ForwardBatch(ins []*Volume) []*Volume {
	outs := make([]*Volume, len(ins))
	for i, in := range ins {
		outs[i] = n.Forward(in)
	}
	return outs
}

// PredictBatch returns the argmax label for each input, reusing layer
// buffers across the batch (see ForwardBatch).
func (n *Network) PredictBatch(ins []*Volume) []int {
	labels := make([]int, len(ins))
	for i, in := range ins {
		labels[i] = n.Predict(in)
	}
	return labels
}

// LossAndBackward computes softmax cross-entropy loss of the input against
// the true label and backpropagates, accumulating weight gradients. It
// returns the loss and whether the prediction was correct.
func (n *Network) LossAndBackward(in *Volume, label int) (loss float64, correct bool) {
	logitsNode := n.logitsNode()
	logits := n.forwardUpTo(in, logitsNode)
	if cap(n.probs) < len(logits.Data) {
		n.probs = make([]float32, len(logits.Data))
	}
	probs := n.probs[:len(logits.Data)]
	softmaxInto(probs, logits.Data)
	loss = -math.Log(math.Max(float64(probs[label]), 1e-12))
	best, bi := float32(math.Inf(-1)), 0
	for i, v := range probs {
		if v > best {
			best, bi = v, i
		}
	}
	correct = bi == label
	// Fused softmax + CE gradient: dLogits = probs - onehot(label).
	grad := scratchVolume(&n.gradBuf, logits.Shape, false) // copy assigns all
	copy(grad.Data, probs)
	grad.Data[label] -= 1

	// Reverse-topological gradient routing. dOut accumulates per node.
	dOut := map[string]*Volume{logitsNode: grad}
	started := false
	for i := len(n.order) - 1; i >= 0; i-- {
		name := n.order[i]
		if name == logitsNode {
			started = true
		}
		if !started {
			continue // nodes after the logits node carry no loss gradient
		}
		g, ok := dOut[name]
		if !ok {
			continue
		}
		var dIn *Volume
		if l, isLayer := n.layers[name]; isLayer {
			dIn = l.Backward(g)
		} else {
			dIn = g // merge nodes route gradients below
		}
		preds := n.preds[name]
		switch {
		case len(preds) == 0:
			// Source: gradient w.r.t. the input is dropped.
		case len(preds) == 1:
			n.accumulate(dOut, preds[0], n.outShape[preds[0]], dIn.Data)
		case n.specs[name].Kind == KindAdd:
			for _, p := range preds {
				n.accumulate(dOut, p, n.outShape[p], dIn.Data)
			}
		default: // concat: split by predecessor channel spans
			off := 0
			for _, p := range preds {
				size := n.outShape[p].Size()
				n.accumulate(dOut, p, n.outShape[p], dIn.Data[off:off+size])
				off += size
			}
		}
	}
	return loss, correct
}

// accumulate adds grad into the dOut buffer of node name, acquiring the
// node's persistent accumulator (zeroed on first touch of the pass) when the
// routing map has no entry yet.
func (n *Network) accumulate(dOut map[string]*Volume, name string, shape Shape, grad []float32) {
	buf, ok := dOut[name]
	if !ok {
		buf = scratchMapVolume(n.bwdBuf, name, shape, true)
		dOut[name] = buf
	}
	for i, v := range grad {
		buf.Data[i] += v
	}
}

// ReleaseScratch returns all of the network's scratch buffers — layer
// activations, gradient volumes, im2col unrolls, merge and accumulator
// buffers — to the shared arena pool and drops the forward cache. Call it
// when retiring a network other workers may build successors of (e.g. a DQL
// candidate after its grid cell finishes); the network remains fully usable,
// it simply re-acquires scratch on the next pass.
func (n *Network) ReleaseScratch() {
	for _, l := range n.layerList {
		l.release()
	}
	for name, v := range n.mergeBuf {
		putFloats(v.Data)
		delete(n.mergeBuf, name)
	}
	for name, v := range n.bwdBuf {
		putFloats(v.Data)
		delete(n.bwdBuf, name)
	}
	releaseVolume(&n.gradBuf)
	n.probs = nil
	for name := range n.fwd {
		delete(n.fwd, name)
	}
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.layerList {
		if g := l.Grad(); g != nil {
			for i := range g.Data() {
				g.Data()[i] = 0
			}
		}
	}
}

// SGD holds the optimizer hyperparameters the paper's metadata records.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	// LayerLR overrides the learning rate for specific layers by name — the
	// per-layer tuning dimension DQL's `config.net["conv*"].lr` varies
	// (paper Query 4). A rate of 0 freezes the layer.
	LayerLR  map[string]float64
	velocity map[string]*tensor.Matrix
}

// Step applies one SGD update using the gradients accumulated over
// batchSize examples.
func (s *SGD) Step(n *Network, batchSize int) {
	if s.velocity == nil {
		s.velocity = make(map[string]*tensor.Matrix)
	}
	inv := 1.0 / float64(batchSize)
	for _, l := range n.layerList {
		w, g := l.Weights(), l.Grad()
		if w == nil {
			continue
		}
		name := l.Spec().Name
		lr := s.LR
		if override, ok := s.LayerLR[name]; ok {
			lr = override
		}
		v, ok := s.velocity[name]
		if !ok {
			v = tensor.NewMatrix(w.Rows(), w.Cols())
			s.velocity[name] = v
		}
		wd, gd, vd := w.Data(), g.Data(), v.Data()
		for i := range wd {
			grad := float64(gd[i])*inv + s.WeightDecay*float64(wd[i])
			vd[i] = float32(s.Momentum*float64(vd[i]) - lr*grad)
			wd[i] += vd[i]
		}
	}
}

// Params returns the named learnable weight matrices in execution order.
// The matrices are live views: mutating them mutates the network.
func (n *Network) Params() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix)
	for _, l := range n.layerList {
		if w := l.Weights(); w != nil {
			out[l.Spec().Name] = w
		}
	}
	return out
}

// ParamNames returns the parametric layer names in execution order.
func (n *Network) ParamNames() []string {
	var out []string
	for _, l := range n.layerList {
		if l.Weights() != nil {
			out = append(out, l.Spec().Name)
		}
	}
	return out
}

// ParamCount returns the total number of learnable floats (|W| in Table I).
func (n *Network) ParamCount() int {
	total := 0
	for _, l := range n.layerList {
		if w := l.Weights(); w != nil {
			total += w.Len()
		}
	}
	return total
}

// Snapshot deep-copies the current weights, keyed by layer name. This is
// the unit PAS archives (paper Fig. 4: a snapshot is a named list of float
// matrices).
func (n *Network) Snapshot() map[string]*tensor.Matrix {
	out := make(map[string]*tensor.Matrix)
	for name, w := range n.Params() {
		out[name] = w.Clone()
	}
	return out
}

// Restore copies the given snapshot into the network weights. Every
// parametric layer must be present with matching shape.
func (n *Network) Restore(snap map[string]*tensor.Matrix) error {
	for _, l := range n.layerList {
		w := l.Weights()
		if w == nil {
			continue
		}
		src, ok := snap[l.Spec().Name]
		if !ok {
			return fmt.Errorf("dnn: snapshot missing weights for layer %q", l.Spec().Name)
		}
		if !src.SameShape(w) {
			return fmt.Errorf("dnn: snapshot weights for %q are %dx%d, want %dx%d",
				l.Spec().Name, src.Rows(), src.Cols(), w.Rows(), w.Cols())
		}
		copy(w.Data(), src.Data())
	}
	return nil
}

// SortedNames returns the keys of a snapshot in deterministic order; PAS and
// DLV iterate snapshots this way so stored artifacts are reproducible.
func SortedNames(snap map[string]*tensor.Matrix) []string {
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Clone returns an independent copy of the network (same definition and
// weights, separate caches), for concurrent inference: a Network is not
// safe for concurrent use, so clone one per goroutine.
func (n *Network) Clone() (*Network, error) {
	// The rng only seeds throwaway weights; Restore overwrites them.
	c, err := Build(n.Def, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	if err := c.Restore(n.Snapshot()); err != nil {
		return nil, err
	}
	return c, nil
}
