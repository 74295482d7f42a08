package dnn

import "fmt"

// graph is the static part of a runnable NetDef: topology, node shapes and
// the logits node, everything that depends on the definition alone and none
// of it on weights. Both executors walk it: the runtime Network and the
// interval forward (interval.go).
type graph struct {
	// order is the node execution order (topological).
	order []string
	specs map[string]LayerSpec
	// preds lists each node's predecessors in edge-declaration order
	// (which fixes the channel order of concat merges).
	preds             map[string][]string
	in                Shape // the network input
	inShape, outShape map[string]Shape
	sink              string
	// logits is where the fused softmax-cross-entropy loss attaches and
	// where interval inference stops: the sink, or its predecessor when the
	// sink is a softmax layer.
	logits string
}

// newGraph validates def and resolves its execution order and the input
// and output shape of every node. The executors need exactly one source
// (receiving the network input) and one sink (the prediction output).
func newGraph(def *NetDef) (*graph, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	order, err := def.TopoOrder()
	if err != nil {
		return nil, err
	}
	g := &graph{
		order:    order,
		specs:    map[string]LayerSpec{},
		preds:    map[string][]string{},
		in:       Shape{C: def.InC, H: def.InH, W: def.InW},
		inShape:  map[string]Shape{},
		outShape: map[string]Shape{},
	}
	for _, l := range def.Nodes {
		g.specs[l.Name] = l
		g.preds[l.Name] = def.Prev(l.Name)
	}
	sources := 0
	var sinks []string
	for _, name := range order {
		if len(g.preds[name]) == 0 {
			sources++
		}
		if len(def.Next(name)) == 0 {
			sinks = append(sinks, name)
		}
	}
	if sources != 1 || len(sinks) != 1 {
		return nil, fmt.Errorf("%w: runtime needs exactly one source and one sink, got %d/%d",
			ErrNetDef, sources, len(sinks))
	}
	g.sink, g.logits = sinks[0], sinks[0]
	if preds := g.preds[g.sink]; g.specs[g.sink].Kind == KindSoftmax && len(preds) == 1 {
		g.logits = preds[0]
	}
	for _, name := range order {
		in, err := g.mergeInputShape(name)
		if err != nil {
			return nil, err
		}
		// A merge node's output is its merged input (OutShape is the
		// identity for add and concat).
		out, err := g.specs[name].OutShape(in)
		if err != nil {
			return nil, err
		}
		g.inShape[name], g.outShape[name] = in, out
	}
	return g, nil
}

// mergeInputShape resolves the input shape of a node from its predecessors'
// output shapes (or the network input for the source).
func (g *graph) mergeInputShape(name string) (Shape, error) {
	preds := g.preds[name]
	spec := g.specs[name]
	switch {
	case len(preds) == 0:
		return g.in, nil
	case len(preds) == 1:
		return g.outShape[preds[0]], nil
	case spec.Kind == KindAdd:
		first := g.outShape[preds[0]]
		for _, p := range preds[1:] {
			if g.outShape[p] != first {
				return Shape{}, fmt.Errorf("%w: add node %q inputs %v and %v differ",
					ErrNetDef, name, first, g.outShape[p])
			}
		}
		return first, nil
	case spec.Kind == KindConcat:
		first := g.outShape[preds[0]]
		total := 0
		for _, p := range preds {
			s := g.outShape[p]
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

// nodeInput assembles a node's input from the node outputs in fwd: the
// network input in for the source, the predecessor's output for a chain
// node, and for a merge node the add or concat of all predecessors, written
// into the volume merged(name) returns.
func (g *graph) nodeInput(name string, in *Volume, fwd map[string]*Volume, merged func(string) *Volume) *Volume {
	preds := g.preds[name]
	switch len(preds) {
	case 0:
		return in
	case 1:
		return fwd[preds[0]]
	}
	out := merged(name)
	if g.specs[name].Kind == KindAdd {
		// Copy the first predecessor, then add the rest: identical sums to
		// zero-then-accumulate, with no zero-on-reuse needed.
		copy(out.Data, fwd[preds[0]].Data)
		for _, p := range preds[1:] {
			for i, v := range fwd[p].Data {
				out.Data[i] += v
			}
		}
		return out
	}
	// concat — predecessor spans cover the whole buffer
	off := 0
	for _, p := range preds {
		copy(out.Data[off:], fwd[p].Data)
		off += fwd[p].Shape.Size()
	}
	return out
}
