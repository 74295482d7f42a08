package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"modelhub/internal/obs"
	"modelhub/internal/synth"
)

// tinyShape keeps the tests fast; the benchmark itself runs defaultShape.
var tinyShape = synth.SDConfig{Versions: 2, SnapshotsPerVersion: 2, ItersPerSnapshot: 2, TrainExamples: 40}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestSmoke runs every workload briefly at tiny size, untraced and traced,
// and requires every metric BENCHMARK.json names, with its unit, and no
// failed op.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for _, wl := range bf.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 3, seconds: 0.6, trace: traced,
				work: t.TempDir(), shape: tinyShape}
			res, det, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d ops=%+v",
					wl.Name, traced, res.Correct, res.Attempted, res.Failed, det.Ops)
			}
			want := bf.EndToEnd
			if traced {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", wl.Name, traced, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
	if obs.Enabled() || obs.TracingEnabled() {
		t.Error("traced run left obs enabled")
	}
}

// faultEnv sets up one workload at tiny size for the fault tests.
func faultEnv(t *testing.T, name string) (*env, *workload) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	e, err := setup(config{seed: 5, shape: tinyShape}, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.close() })
	return e, w
}

// requests runs n requests and returns the runner.
func requests(e *env, w *workload, n int) *runner {
	r := newRunner(e, w, 5)
	for i := 0; i < n; i++ {
		w.request(r)
		r.requests++
	}
	return r
}

// TestCheckoutFlippedBitFails flips one bit in every reference snapshot:
// every checkout must count as failed, and the run must go on.
func TestCheckoutFlippedBitFails(t *testing.T) {
	e, w := faultEnv(t, "checkout")
	if r := requests(e, w, 3); r.stat(opCheckout).failed != 0 {
		t.Fatalf("clean checkouts failed: %+v", r.stat(opCheckout))
	}
	for _, snap := range e.fx.raw {
		for _, m := range snap {
			d := m.Data()
			d[0] = math.Float32frombits(math.Float32bits(d[0]) ^ 1)
			break
		}
	}
	r := requests(e, w, 8)
	s := r.stat(opCheckout)
	if s.attempted != 6 || s.failed != s.attempted {
		t.Errorf("checkout attempted=%d failed=%d, want every one of 6 failed", s.attempted, s.failed)
	}
	if q := r.stat(opQuery); q.attempted != 2 || q.failed != 0 {
		t.Errorf("query attempted=%d failed=%d, want 2 and 0", q.attempted, q.failed)
	}
}

// TestQueryWrongSetFails hands every query an expected set with one extra
// version.
func TestQueryWrongSetFails(t *testing.T) {
	e, w := faultEnv(t, "checkout")
	for i := range e.queries {
		e.queries[i].want = append(e.queries[i].want, 1<<40)
	}
	r := requests(e, w, 8)
	if q := r.stat(opQuery); q.attempted != 2 || q.failed != 2 {
		t.Errorf("query attempted=%d failed=%d, want 2 and 2", q.attempted, q.failed)
	}
	if c := r.stat(opCheckout); c.failed != 0 {
		t.Errorf("checkout failed=%d, want 0", c.failed)
	}
}

// TestPredictWrongLabelFails changes every full-precision label: each
// progressive request must count as failed.
func TestPredictWrongLabelFails(t *testing.T) {
	e, w := faultEnv(t, "predict")
	if r := requests(e, w, 2); r.stat(opPredict).failed != 0 || r.stat(opEval).failed != 0 {
		t.Fatalf("clean requests failed: predict %+v eval %+v", r.stat(opPredict), r.stat(opEval))
	}
	for _, labels := range e.exact {
		for i := range labels {
			labels[i] = (labels[i] + 1) % 10
		}
	}
	r := requests(e, w, 2)
	if p := r.stat(opPredict); p.attempted != 2 || p.failed != 2 {
		t.Errorf("predict attempted=%d failed=%d, want 2 and 2", p.attempted, p.failed)
	}
}

// TestEvalWrongLabelFails changes one true label so that the example's
// outcome flips: Repo.Eval's accuracy then differs from set-up's.
func TestEvalWrongLabelFails(t *testing.T) {
	e, _ := faultEnv(t, "predict")
	q := predictReq{v: e.fx.versions[0], idx: []int{0, 1, 2, 3}}
	_, truth, want := e.predictExamples(q)
	res, err := e.mh.Repo.Eval(q.v.ID, "latest", truth, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkEval(len(truth), want, res); err != nil {
		t.Fatalf("clean eval: %v", err)
	}
	if top1 := e.exact[q.v.ID][0]; truth[0].Label == top1 {
		truth[0].Label = (top1 + 1) % 10
	} else {
		truth[0].Label = top1
	}
	if res, err = e.mh.Repo.Eval(q.v.ID, "latest", truth, 4); err != nil {
		t.Fatal(err)
	}
	if checkEval(len(truth), want, res) == nil {
		t.Error("eval with a wrong label passed the check")
	}
}

// TestSelfTime checks self time against hand-computed intervals: children
// overlapping each other, a child running past its parent, and a program
// root trace adopted by the benchmark span that contains it in time.
func TestSelfTime(t *testing.T) {
	recs := []obs.SpanRecord{
		{TraceID: "t1", SpanID: "a", Name: "bench.op.x", StartUnixNano: 0, DurationNS: 100},
		{TraceID: "t1", SpanID: "b", ParentID: "a", Name: "bench.call", StartUnixNano: 10, DurationNS: 80},
		{TraceID: "t1", SpanID: "c", ParentID: "b", Name: "prog.child", StartUnixNano: 20, DurationNS: 30},
		{TraceID: "t1", SpanID: "d", ParentID: "b", Name: "prog.child", StartUnixNano: 40, DurationNS: 60},
		{TraceID: "t2", SpanID: "e", Name: "prog.root", StartUnixNano: 5, DurationNS: 4},
	}
	aggs := aggregateSpans(recs)
	want := map[string]int64{
		"bench.op.x": 100 - 80 - 4, // b covers 10..90, the adopted root 5..9
		"bench.call": 80 - 70,      // children cover 20..90 within 10..90
		"prog.child": 30 + 60,
		"prog.root":  4,
	}
	for name, self := range want {
		if got := aggs[name].selfNS; got != self {
			t.Errorf("%s self = %d, want %d", name, got, self)
		}
	}
}

func TestPercentileMatchesLinearInterpolation(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.95, 4.8}, {1, 5}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
