// Package perturb implements the paper's progressive model evaluation
// scheme (Sec. IV-D): evaluate a DNN forward pass while every weight is
// only known to lie in an interval (because only the high-order byte planes
// were retrieved), propagate the perturbation through every layer, and use
// the Lemma-4 determinism condition to decide whether the prediction is
// already certain or whether lower-order byte planes must be fetched.
package perturb

import (
	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
)

// WeightBounds carries the lo/hi matrices of every parametric layer.
type WeightBounds struct {
	Lo, Hi map[string]*tensor.Matrix
}

// ExactWeights wraps a concrete snapshot as degenerate bounds.
func ExactWeights(w map[string]*tensor.Matrix) WeightBounds {
	return WeightBounds{Lo: w, Hi: w}
}

// Evaluator runs interval forward passes of a network definition under
// uncertain weights (paper Problem 2) on the dnn runtime's own graph and
// kernels (dnn.IntervalNet). It is safe for concurrent use.
type Evaluator struct {
	def *dnn.NetDef
	net *dnn.IntervalNet
}

// NewEvaluator validates the definition and resolves its graph.
func NewEvaluator(def *dnn.NetDef) (*Evaluator, error) {
	net, err := dnn.NewIntervalNet(def)
	if err != nil {
		return nil, err
	}
	return &Evaluator{def: def, net: net}, nil
}

// Forward propagates the input through the DAG under the weight bounds and
// returns the interval of every output logit. A trailing softmax layer is
// skipped: softmax preserves the ordering of logits, so Lemma 4 applies to
// the logits directly.
func (e *Evaluator) Forward(in *dnn.Volume, w WeightBounds) (lo, hi []float32, err error) {
	return e.net.Forward(in, w.Lo, w.Hi)
}
