package main

import (
	"fmt"
	"math"
	"sort"

	"modelhub/internal/dlv"
	"modelhub/internal/dql"
	"modelhub/internal/tensor"
)

// Every check returns nil when the program's output is right. A non-nil
// result counts the op as failed; the run goes on.

// checkWeights requires got to be bit-identical to want: the same layer
// names, shapes and float32 bit patterns.
func checkWeights(want, got map[string]*tensor.Matrix) error {
	if len(got) != len(want) {
		return fmt.Errorf("weights: %d layers, want %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("weights: layer %q missing", name)
		}
		if !g.SameShape(w) {
			return fmt.Errorf("weights: layer %q has another shape", name)
		}
		gd, wd := g.Data(), w.Data()
		for i := range wd {
			if math.Float32bits(gd[i]) != math.Float32bits(wd[i]) {
				return fmt.Errorf("weights: layer %q differs at element %d", name, i)
			}
		}
	}
	return nil
}

// checkQuery requires the select result to hold exactly the version ids in
// want (sorted ascending).
func checkQuery(want []int64, res *dql.Result) error {
	if res == nil {
		return fmt.Errorf("query: no result")
	}
	got := make([]int64, 0, len(res.Versions))
	for _, v := range res.Versions {
		got = append(got, v.ID)
	}
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if len(got) != len(want) {
		return fmt.Errorf("query: %d versions %v, want %v", len(got), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("query: versions %v, want %v", got, want)
		}
	}
	return nil
}

// checkProgressive requires every one of n examples to be answered, and
// answered right. The examples carry the full-precision top-1 label as
// their label, so accuracy below 1 means progressive inference disagreed
// with full precision.
func checkProgressive(n int, res *dlv.ProgressiveEvalResult) error {
	if res == nil {
		return fmt.Errorf("progressive: no result")
	}
	answered := 0
	for _, c := range res.PrefixHistogram {
		answered += c
	}
	if answered != n {
		return fmt.Errorf("progressive: %d of %d examples answered", answered, n)
	}
	if res.Accuracy != 1 {
		return fmt.Errorf("progressive: top-1 agrees with full precision on %.4f of examples", res.Accuracy)
	}
	return nil
}

// checkEval requires Repo.Eval's accuracy over n examples to equal the
// accuracy set-up computed from the raw weights (want), as a count of
// correct answers.
func checkEval(n int, want float64, res *dlv.EvalResult) error {
	if res == nil {
		return fmt.Errorf("eval: no result")
	}
	if math.Round(res.Accuracy*float64(n)) != math.Round(want*float64(n)) {
		return fmt.Errorf("eval: accuracy %.4f, want %.4f", res.Accuracy, want)
	}
	return nil
}
