package perturb

import (
	"fmt"
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
// repeat. Prefix 4 yields exact weights, where determination is guaranteed
// up to exact ties (broken by index order, matching dnn.Network.Predict).
func Progressive(ev *Evaluator, src IntervalSource, in *dnn.Volume, k, startPrefix int) (*Result, error) {
	if startPrefix < 1 {
		startPrefix = 1
	}
	names := ParametricNames(ev.def)
	for prefix := startPrefix; prefix <= 4; prefix++ {
		w := WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		for _, name := range names {
			lo, hi, err := src.WeightIntervals(name, prefix)
			if err != nil {
				return nil, err
			}
			w.Lo[name], w.Hi[name] = lo, hi
		}
		lo, hi, err := ev.Forward(in, w)
		if err != nil {
			return nil, err
		}
		if ok, labels := TopKDetermined(lo, hi, k); ok {
			return &Result{Labels: labels, PrefixUsed: prefix, Lo: lo, Hi: hi}, nil
		}
		if prefix == 4 {
			// Exact weights but tied logits: fall back to argsort by value,
			// the same order a plain forward pass would produce.
			labels := argsortDesc(lo)[:k]
			return &Result{Labels: labels, PrefixUsed: 4, Lo: lo, Hi: hi}, nil
		}
	}
	return nil, fmt.Errorf("perturb: unreachable")
}

func argsortDesc(v []float32) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
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
