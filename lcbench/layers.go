package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/obs"
	"modelhub/internal/perturb"
	"modelhub/internal/tensor"
)

// probeRequests caps how many of the traced predict requests the probe
// replays.
const probeRequests = 16

// tracedRun measures half the time untraced and half traced, then derives
// the per-layer metrics: self time per span name from the traced half's
// span records, registry counter deltas per op, and the tracing overhead
// per op type as traced p50 over untraced p50.
func tracedRun(cfg config, r *runner, w *workload, measure time.Duration, det *detail, work string) (map[string]metric, error) {
	half := measure / 2
	untracedN := r.phase(half, 0)
	untraced := r.ops
	summarize(det, "untraced.", untraced)

	// Size the collector for every trace the traced half can leave: cap
	// the requests at 1.5x what the untraced half managed, plus slack.
	maxRequests := untracedN*3/2 + 8
	ring := maxRequests*w.tracesPerRequest + 64
	obs.SetTraceBufferSize(ring)
	obs.SetTraceSampler(1)
	obs.Enable()
	obs.EnableTracing()
	r.traced = true
	r.resetPhase()
	before := counterSnapshot()
	requests := r.phase(half, maxRequests)
	delta := counterDelta(before, counterSnapshot())
	recs := collectSpans()
	obsOff()
	r.traced = false
	traced := r.ops
	if kept := int(delta["obs.traces.kept"]); kept > ring {
		return nil, fmt.Errorf("trace collector held %d traces but %d were kept", ring, kept)
	}

	dir := filepath.Join(work, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	det.SpansFile = filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := writeSpans(det.SpansFile, recs); err != nil {
		return nil, err
	}

	p, err := probe(r)
	if err != nil {
		return nil, err
	}
	if p.requests > 0 {
		traced["probe"] = &opStats{attempted: p.requests, failed: p.failed}
	}
	summarize(det, "traced.", traced)
	return layerMetrics(w, r, untraced, traced, requests, aggregateSpans(recs), delta, p), nil
}

// obsOff restores obs to its default, disabled state.
func obsOff() {
	obs.DisableTracing()
	obs.Disable()
}

// probeResult times the inside of predict requests from outside the
// program: perturb.Progressive over a timing source, and the dense
// Build+Restore+EvaluateParallel path Repo.Eval takes.
type probeResult struct {
	requests, examples, failed int
	total, source              time.Duration
	buildRestore, evaluate     time.Duration
}

// probe replays up to probeRequests of the traced predict requests with obs
// off.
func probe(r *runner) (probeResult, error) {
	var p probeResult
	reqs := r.predicts
	if len(reqs) > probeRequests {
		reqs = reqs[:probeRequests]
	}
	repo := r.e.mh
	for _, q := range reqs {
		relabelled, truth, wantAcc := r.e.predictExamples(q)
		var mu sync.Mutex
		var src time.Duration
		timing := perturb.SourceFunc(func(layer string, prefix int) (*tensor.Matrix, *tensor.Matrix, error) {
			t0 := time.Now()
			lo, hi, err := repo.Repo.WeightIntervals(q.v.ID, dlv.LatestSnap, layer, prefix)
			d := time.Since(t0)
			mu.Lock()
			src += d
			mu.Unlock()
			return lo, hi, err
		})
		t0 := time.Now()
		ev, err := perturb.NewEvaluator(q.v.NetDef)
		if err != nil {
			return p, err
		}
		cached := perturb.NewPrefetchSource(timing, perturb.ParametricNames(q.v.NetDef), 0)
		bad := false
		for _, ex := range relabelled {
			out, err := perturb.Progressive(ev, cached, ex.Input, 1, 1)
			if err != nil {
				return p, err
			}
			if len(out.Labels) != 1 || out.Labels[0] != ex.Label {
				bad = true
			}
		}
		p.total += time.Since(t0)
		mu.Lock()
		p.source += src
		mu.Unlock()

		weights, err := repo.Repo.Weights(q.v.ID, dlv.LatestSnap, 4)
		if err != nil {
			return p, err
		}
		t1 := time.Now()
		net, err := dnn.Build(q.v.NetDef, rand.New(rand.NewSource(0)))
		if err != nil {
			return p, err
		}
		if err := net.Restore(weights); err != nil {
			return p, err
		}
		t2 := time.Now()
		acc, err := dnn.EvaluateParallel(net, truth, runtime.GOMAXPROCS(0))
		if err != nil {
			return p, err
		}
		p.evaluate += time.Since(t2)
		p.buildRestore += t2.Sub(t1)
		if checkEval(len(truth), wantAcc, &dlv.EvalResult{Accuracy: acc}) != nil {
			bad = true
		}
		if bad {
			p.failed++
		}
		p.requests++
		p.examples += len(relabelled)
	}
	return p, nil
}

// layerMetrics assembles the per-layer metrics. A layer the workload does
// not exercise reads 0; README.md lists where each should be non-zero.
func layerMetrics(w *workload, r *runner, untraced, traced map[string]*opStats, requests int,
	spans map[string]*spanAgg, delta map[string]float64, p probeResult) map[string]metric {
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	span := func(name string) *spanAgg {
		if a := spans[name]; a != nil {
			return a
		}
		return &spanAgg{}
	}
	count := func(op string) float64 {
		if s := traced[op]; s != nil {
			return float64(s.attempted)
		}
		return 0
	}
	// An op is one timed op; a lifecycle request's four ops count as one.
	ops := 0.0
	for _, op := range allOps {
		ops += count(op)
	}
	if w.name == "lifecycle" {
		ops = float64(requests)
	}
	perOp := func(counter string) float64 { return ratio(delta[counter], ops) }

	put("obs.traced_ops", ops, "count")
	put("core.open_ms", span(benchPrefix+"core.Open").meanMS(), "ms")
	put("dql.run_ms", span(benchPrefix+"ModelHub.Query").meanMS(), "ms")
	cold, warm := span("dlv.checkout").meanMS(), 0.0
	if w.name == "predict" {
		cold, warm = 0, cold
	}
	put("dlv.checkout_cold_ms", cold, "ms")
	put("dlv.checkout_warm_ms", warm, "ms")
	put("dlv.commit_self_ms", span("dlv.commit").meanSelfMS(), "ms")
	put("core.train_and_commit_self_ms", span("core.train_and_commit").meanSelfMS(), "ms")

	put("pas.get_snapshot_self_ms", span("pas.get_snapshot").meanSelfMS(), "ms")
	put("pas.chunk_reads_per_op", perOp("pas.chunk.reads"), "count")
	put("pas.chunk_read_bytes_per_op", perOp("pas.chunk.read_bytes"), "B")
	put("pas.segment_opens_per_op", perOp("pas.segment.opens"), "count")
	lookups := delta["pas.plane_cache.hits"] + delta["pas.plane_cache.misses"]
	put("pas.plane_cache_hit_ratio", ratio(delta["pas.plane_cache.hits"], lookups), "ratio")
	put("pas.plane_cache_lookups", lookups, "count")
	put("pas.singleflight_dedup_per_op", perOp("pas.singleflight.dedup"), "count")
	examples := 0.0
	for _, c := range r.hist {
		examples += float64(c)
	}
	put("pas.low_order_bytes_avoided_per_example", ratio(delta["pas.progressive.low_order_bytes_avoided"], examples), "B")
	put("pas.segment_dedup_hits_per_archive", ratio(delta["pas.segment.dedup_hits"], count(opArchive)), "count")
	put("pas.segment_dedup_bytes_saved_per_archive", ratio(delta["pas.segment.dedup_bytes_saved"], count(opArchive)), "B")
	put("pas.weight_intervals_ms_per_request", ratio(float64(p.source.Nanoseconds())/1e6, float64(p.requests)), "ms")

	put("perturb.progressive_ms_per_request", ratio(float64((p.total-p.source).Nanoseconds())/1e6, float64(p.requests)), "ms")
	planes := 0.0
	for prefix := 1; prefix <= 4; prefix++ {
		put(fmt.Sprintf("perturb.resolved_share.%d", prefix), ratio(float64(r.hist[prefix]), examples), "ratio")
		planes += float64(prefix * r.hist[prefix])
	}
	put("perturb.resolved_examples", examples, "count")
	put("perturb.planes_mean", ratio(planes, examples), "planes")

	put("dnn.build_restore_ms", ratio(float64(p.buildRestore.Nanoseconds())/1e6, float64(p.requests)), "ms")
	put("dnn.evaluate_us_per_example", ratio(float64(p.evaluate.Nanoseconds())/1e3, float64(p.examples)), "us")
	train := span("dnn.train")
	put("dnn.train_self_ms", train.meanSelfMS(), "ms")
	put("dnn.train_examples_per_s", ratio(delta["dnn.train.examples"], float64(train.durNS)/1e9), "1/s")

	put("tensor.gemm_parallel_dispatch_per_op", perOp("tensor.gemm.dispatch.parallel"), "count")
	put("tensor.gemm_inline_dispatch_per_op", perOp("tensor.gemm.dispatch.inline"), "count")
	put("tensor.gemm_steal_ratio", ratio(delta["tensor.gemm.chunks.stolen"], delta["tensor.gemm.chunks"]), "ratio")
	put("tensor.gemm_chunks", delta["tensor.gemm.chunks"], "count")

	put("hub.publish_self_ms", span("hub.client.publish").meanSelfMS(), "ms")
	put("hub.pull_self_ms", span("hub.client.pull").meanSelfMS(), "ms")
	put("hub.publish_bytes_per_op", ratio(delta["hub.transfer.publish.bytes"], count(opPublish)), "B")
	put("hub.pull_bytes_per_op", ratio(delta["hub.transfer.pull.bytes"], count(opPull)), "B")
	transfers := count(opPublish) + count(opPull)
	put("hub.retries_per_op", ratio(delta["hub.transfer.retries"], transfers), "count")
	put("hub.resumes_per_op", ratio(delta["hub.transfer.resumes"], transfers), "count")
	put("hub.digest_mismatches", delta["hub.transfer.digest_mismatch"], "count")

	for _, op := range allOps {
		var u, t float64
		if s := untraced[op]; s != nil {
			u = median(s.ms)
		}
		if s := traced[op]; s != nil {
			t = median(s.ms)
		}
		put("obs.tracing_overhead_ratio."+op, ratio(t, u), "ratio")
		put("op."+op+".p50_ms", u, "ms")
	}
	return m
}
