package perturb

import (
	"fmt"
	"math/rand"
	"sort"

	"modelhub/internal/dnn"
	"modelhub/internal/tensor"
)

// TopKDetermined implements the Lemma-4 determinism condition, generalized
// to top-k: given output intervals, it reports whether a set S of k indices
// is certainly the top-k result — i.e. the smallest lower bound inside S
// strictly exceeds the largest upper bound outside S (the "matched index
// value range does not overlap with the k+1 index value range"). When
// determined, the members of S are returned ordered by descending lower
// bound. A NaN bound brackets nothing, so it leaves the top-k undetermined.
func TopKDetermined(lo, hi []float32, k int) (bool, []int) {
	n := len(lo)
	if k <= 0 || k > n {
		return false, nil
	}
	for i := range lo {
		if lo[i] != lo[i] || hi[i] != hi[i] {
			return false, nil
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return lo[idx[a]] > lo[idx[b]] })
	top := idx[:k]
	minLo := lo[top[k-1]]
	for _, j := range idx[k:] {
		if hi[j] >= minLo {
			return false, nil
		}
	}
	return true, append([]int(nil), top...)
}

// IntervalSource supplies weight bounds at increasing byte-plane prefixes —
// pas.Store satisfies this via a small adapter. Prefix 4 must return exact
// (degenerate) intervals.
type IntervalSource interface {
	// WeightIntervals returns the lo/hi bound matrices of the named layer
	// when only the first `prefix` byte planes are read.
	WeightIntervals(layer string, prefix int) (lo, hi *tensor.Matrix, err error)
}

// Result describes one progressive evaluation.
type Result struct {
	// Labels is the determined top-k label set, best first.
	Labels []int
	// PrefixUsed is the number of byte planes that had to be read.
	PrefixUsed int
	// Lo, Hi are the final logit intervals.
	Lo, Hi []float32
}

// Progressive runs the paper's progressive query: evaluate with 1 byte
// plane; if the top-k prediction is not determined, fetch one more plane and
// repeat. It is a one-element ProgressiveBatch.
func Progressive(ev *Evaluator, src IntervalSource, in *dnn.Volume, k, startPrefix int) (*Result, error) {
	res, err := ProgressiveBatch(ev, src, []*dnn.Volume{in}, k, startPrefix)
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// ProgressiveBatch runs the progressive query for every input: each prefix,
// starting at startPrefix, is one batched interval forward over the
// examples still undetermined. The bounds contain the logits dnn.Network
// computes, so a determined top-k is Network's. At prefix 4 the weights are
// exact; an example still undetermined there (a near tie) takes its top-k
// from one dnn.Network built from those weights, as a full-precision eval
// would, so every answer agrees with full precision.
func ProgressiveBatch(ev *Evaluator, src IntervalSource, ins []*dnn.Volume, k, startPrefix int) ([]*Result, error) {
	if startPrefix < 1 {
		startPrefix = 1
	}
	out := make([]*Result, len(ins))
	pending := make([]int, len(ins))
	for i := range pending {
		pending[i] = i
	}
	names := ParametricNames(ev.def)
	for prefix := min(startPrefix, 4); len(pending) > 0; prefix++ {
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		for _, name := range names {
			lo, hi, err := src.WeightIntervals(name, prefix)
			if err != nil {
				return nil, err
			}
			w.Lo[name], w.Hi[name] = lo, hi
		}
		batch := make([]*dnn.Volume, len(pending))
		for j, i := range pending {
			batch[j] = ins[i]
		}
		lo, hi, err := ev.ForwardBatch(batch, w)
		if err != nil {
			return nil, err
		}
		var still []int
		for j, i := range pending {
			ok, labels := TopKDetermined(lo[j], hi[j], k)
			out[i] = &Result{Labels: labels, PrefixUsed: prefix, Lo: lo[j], Hi: hi[j]}
			if !ok {
				still = append(still, i)
			}
		}
		if prefix == 4 && len(still) > 0 {
			if err := fullPrecisionTopK(ev.def, w.Lo, ins, still, out, k); err != nil {
				return nil, err
			}
			still = nil
		}
		pending = still
	}
	return out, nil
}

// fullPrecisionTopK answers the examples ins[i], i in idx, from one
// dnn.Network holding the exact weights: the top-k of its output, ties
// broken by index as Network.Predict breaks them.
func fullPrecisionTopK(def *dnn.NetDef, weights map[string]*tensor.Matrix, ins []*dnn.Volume, idx []int, out []*Result, k int) error {
	// The rng only seeds throwaway weights; Restore overwrites them.
	net, err := dnn.Build(def, rand.New(rand.NewSource(0)))
	if err != nil {
		return err
	}
	if err := net.Restore(weights); err != nil {
		return err
	}
	for _, i := range idx {
		scores := net.Forward(ins[i]).Data
		if k < 1 || k > len(scores) {
			return fmt.Errorf("perturb: top-%d of %d outputs", k, len(scores))
		}
		out[i].Labels = argsortDesc(scores)[:k]
	}
	return nil
}

// argsortDesc orders indices by descending value, ties by index and NaN
// last: its first index is the one Network.Predict's argmax picks.
func argsortDesc(v []float32) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		x, y := v[idx[a]], v[idx[b]]
		return x > y || (y != y && x == x)
	})
	return idx
}

// ParametricNames lists the parametric layer names of a network definition
// in declaration order — the layer set a PrefetchSource should cover.
func ParametricNames(def *dnn.NetDef) []string {
	var out []string
	for _, l := range def.Nodes {
		if l.Parametric() {
			out = append(out, l.Name)
		}
	}
	return out
}
