package experiments

import (
	"io"
	"math/rand"

	"modelhub/internal/dnn"
	"modelhub/internal/perturb"
	"modelhub/internal/tensor"
)

// Fig6dRow is one point of Fig 6(d): at a byte-plane prefix (fraction of
// data retrieved), the error rate of committing to the truncated weights
// and the fraction of queries the determinism check flags as needing more
// bytes (for top-1 and top-5).
type Fig6dRow struct {
	Prefix       int     // byte planes used (1 or 2 in the paper's plot)
	DataFraction float64 // prefix / 4
	ErrorRate    float64 // truncated prediction != full-precision prediction
	NeedMoreTop1 float64 // fraction undetermined for k=1
	NeedMoreTop5 float64 // fraction undetermined for k=5
}

// RunFig6d measures progressive evaluation on a trained model over its test
// set.
func RunFig6d(m *TrainedModel, queries int) ([]Fig6dRow, error) {
	if queries > len(m.Test) {
		queries = len(m.Test)
	}
	test := m.Test[:queries]
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		return nil, err
	}
	src := perturb.NewSegmentedSource(m.Net.Snapshot())
	names := perturb.ParametricNames(m.Def)

	var rows []Fig6dRow
	for prefix := 1; prefix <= 3; prefix++ {
		w := perturb.WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
		trunc := map[string]*tensor.Matrix{}
		for _, name := range names {
			lo, hi, err := src.WeightIntervals(name, prefix)
			if err != nil {
				return nil, err
			}
			w.Lo[name], w.Hi[name] = lo, hi
			// The interval lower reconstruction IS the truncated snapshot
			// (zero-filled low bytes) for non-negative weights; use the
			// exact truncation for the committed prediction.
			seg := src[name]
			t, err := seg.Truncated(prefix)
			if err != nil {
				return nil, err
			}
			trunc[name] = t
		}
		truncNet, err := buildRestored(m, trunc)
		if err != nil {
			return nil, err
		}
		ins := make([]*dnn.Volume, len(test))
		for i, ex := range test {
			ins[i] = ex.Input
		}
		los, his, err := ev.ForwardBatch(ins, w)
		if err != nil {
			return nil, err
		}
		var wrong, undet1, undet5 int
		for i, ex := range test {
			if truncNet.Predict(ex.Input) != m.Net.Predict(ex.Input) {
				wrong++
			}
			lo, hi := los[i], his[i]
			if ok, _ := perturb.TopKDetermined(lo, hi, 1); !ok {
				undet1++
			}
			k5 := 5
			if k5 > len(lo) {
				k5 = len(lo)
			}
			if ok, _ := perturb.TopKDetermined(lo, hi, k5); !ok {
				undet5++
			}
		}
		n := float64(len(test))
		rows = append(rows, Fig6dRow{
			Prefix:       prefix,
			DataFraction: float64(prefix) / 4,
			ErrorRate:    float64(wrong) / n,
			NeedMoreTop1: float64(undet1) / n,
			NeedMoreTop5: float64(undet5) / n,
		})
	}
	return rows, nil
}

// buildRestored builds a runtime network for m's definition with the given
// weights installed.
func buildRestored(m *TrainedModel, w map[string]*tensor.Matrix) (*dnn.Network, error) {
	net, err := dnn.Build(m.Def, rand.New(rand.NewSource(0)))
	if err != nil {
		return nil, err
	}
	if err := net.Restore(w); err != nil {
		return nil, err
	}
	return net, nil
}

// PrintFig6d renders the progressive-evaluation series.
func PrintFig6d(w io.Writer, rows []Fig6dRow) {
	fprintf(w, "Fig 6(d): progressive query evaluation using high-order bytes\n")
	fprintf(w, "%-8s %-8s %-12s %-14s %-14s\n", "PLANES", "DATA%", "ERROR RATE", "NEED-MORE k=1", "NEED-MORE k=5")
	for _, r := range rows {
		fprintf(w, "%-8d %-8.0f %-12.4f %-14.4f %-14.4f\n",
			r.Prefix, 100*r.DataFraction, r.ErrorRate, r.NeedMoreTop1, r.NeedMoreTop5)
	}
}
