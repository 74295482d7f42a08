package dlv

import (
	"fmt"
	"math/rand"
	"runtime"

	"modelhub/internal/dnn"
	"modelhub/internal/perturb"
	"modelhub/internal/tensor"
)

// EvalResult reports a dlv eval run.
type EvalResult struct {
	Accuracy float64
	// Prefix is the byte-plane resolution the weights were read at.
	Prefix int
}

// Eval runs the test phase of a stored model version on the given examples
// (dlv eval), reading weights at the requested byte-plane prefix (4 =
// full precision; lower values exercise the lossy fast path).
func (r *Repo) Eval(versionID int64, snap string, examples []dnn.Example, prefix int) (*EvalResult, error) {
	v, err := r.Version(versionID)
	if err != nil {
		return nil, err
	}
	weights, err := r.Weights(versionID, snap, prefix)
	if err != nil {
		return nil, err
	}
	net, err := buildWith(v.NetDef, weights)
	if err != nil {
		return nil, err
	}
	// Sharded parallel evaluation; matches sequential dnn.Evaluate exactly.
	acc, err := dnn.EvaluateParallel(net, examples, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	return &EvalResult{Accuracy: acc, Prefix: prefix}, nil
}

// ProgressiveEvalResult summarizes a progressive dlv eval over a dataset.
type ProgressiveEvalResult struct {
	Accuracy float64
	// PrefixHistogram[p] counts queries that resolved using p byte planes.
	PrefixHistogram [5]int
}

// EvalProgressive answers eval queries with the paper's progressive scheme:
// start from high-order byte planes and fetch more only when Lemma 4 cannot
// certify the top-1 prediction. The version must be archived.
func (r *Repo) EvalProgressive(versionID int64, snap string, examples []dnn.Example) (*ProgressiveEvalResult, error) {
	return r.EvalProgressiveTopK(versionID, snap, examples, 1)
}

// EvalProgressiveTopK generalizes EvalProgressive to top-k determination
// (the paper evaluates both top-1 and top-5): accuracy counts a query
// correct when the true label is anywhere in the certified top-k set.
func (r *Repo) EvalProgressiveTopK(versionID int64, snap string, examples []dnn.Example, k int) (*ProgressiveEvalResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("%w: top-k needs k >= 1", ErrRepo)
	}
	v, err := r.Version(versionID)
	if err != nil {
		return nil, err
	}
	if !v.Archived {
		return nil, fmt.Errorf("%w: progressive eval requires an archived version", ErrRepo)
	}
	ev, err := perturb.NewEvaluator(v.NetDef)
	if err != nil {
		return nil, err
	}
	// Fetch all layers of a prefix concurrently (PrefetchSource) on top of
	// the archive's concurrent retrieval engine; results cache across the
	// whole example batch, so each (layer, prefix) hits the store once.
	base := perturb.SourceFunc(func(layer string, prefix int) (*tensor.Matrix, *tensor.Matrix, error) {
		return r.WeightIntervals(versionID, snap, layer, prefix)
	})
	src := perturb.NewPrefetchSource(base, perturb.ParametricNames(v.NetDef), 0)
	ins := make([]*dnn.Volume, len(examples))
	for i, ex := range examples {
		ins[i] = ex.Input
	}
	// One batched progressive query: each prefix is one parallel interval
	// forward over the examples it has not settled yet.
	outs, err := perturb.ProgressiveBatch(ev, src, ins, k, 1)
	if err != nil {
		return nil, err
	}
	res := &ProgressiveEvalResult{}
	correct := 0
	for i, ex := range examples {
		out := outs[i]
		res.PrefixHistogram[out.PrefixUsed]++
		for _, label := range out.Labels {
			if label == ex.Label {
				correct++
				break
			}
		}
	}
	if len(examples) > 0 {
		res.Accuracy = float64(correct) / float64(len(examples))
	}
	return res, nil
}

// buildWith constructs a runtime network and installs the given weights.
func buildWith(def *dnn.NetDef, weights map[string]*tensor.Matrix) (*dnn.Network, error) {
	// The rng only seeds throwaway initial weights; Restore overwrites them.
	net, err := dnn.Build(def, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	if err := net.Restore(weights); err != nil {
		return nil, err
	}
	return net, nil
}

// SnapshotAccuracy is one point of a version's training trajectory.
type SnapshotAccuracy struct {
	Snapshot string
	Accuracy float64
}

// EvalHistory evaluates every stored snapshot of a version on the examples
// (dlv history): the accuracy trajectory across checkpoints, one of the
// insights the paper keeps checkpoints for.
func (r *Repo) EvalHistory(versionID int64, examples []dnn.Example) ([]SnapshotAccuracy, error) {
	v, err := r.Version(versionID)
	if err != nil {
		return nil, err
	}
	if len(v.Snapshots) == 0 {
		return nil, fmt.Errorf("%w: version %d has no snapshots", ErrRepo, versionID)
	}
	out := make([]SnapshotAccuracy, 0, len(v.Snapshots))
	for _, snap := range v.Snapshots {
		res, err := r.Eval(versionID, snap, examples, 4)
		if err != nil {
			return nil, err
		}
		out = append(out, SnapshotAccuracy{Snapshot: snap, Accuracy: res.Accuracy})
	}
	return out, nil
}
