package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"

	"modelhub/internal/obs"
)

// benchPrefix marks the spans the benchmark opens itself: one root per op
// (bench.op.<op>) and one child around each public call it makes.
const benchPrefix = "bench."

// call runs fn, one call into a public entry point, inside a benchmark-side
// span. fn receives the span's context, so the program's own spans started
// from it become the span's children. With obs disabled the span is nil and
// costs one atomic load.
func call(ctx context.Context, name string, fn func(ctx context.Context) error) error {
	ctx, span := obs.Start(ctx, benchPrefix+name)
	err := fn(ctx)
	if err != nil {
		span.SetError()
	}
	span.End()
	return err
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count  int
	durNS  int64
	selfNS int64
}

func (a *spanAgg) meanMS() float64     { return ratio(float64(a.durNS)/1e6, float64(a.count)) }
func (a *spanAgg) meanSelfMS() float64 { return ratio(float64(a.selfNS)/1e6, float64(a.count)) }

// spanNode is one span record with its resolved children.
type spanNode struct {
	rec        obs.SpanRecord
	start, end int64
	children   []*spanNode
}

// collectSpans returns every span record in the trace collector.
func collectSpans() []obs.SpanRecord {
	var out []obs.SpanRecord
	for _, t := range obs.Traces() {
		recs, ok := obs.TraceRecordsByString(t.ID)
		if ok {
			out = append(out, recs...)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].StartUnixNano < out[b].StartUnixNano })
	return out
}

// aggregateSpans computes count, duration and self time per span name.
//
// A span's parent is the record its ParentID names in the same trace.
// Program spans started without the caller's context (Repo.Eval's inner
// checkout, TrainAndCommit's trace) root traces of their own; they are
// adopted by the innermost benchmark span whose interval contains them,
// which is unambiguous because each workload is one closed-loop client.
// Self time is a span's duration minus the part of it that the union of
// its children's intervals covers.
func aggregateSpans(recs []obs.SpanRecord) map[string]*spanAgg {
	nodes := make([]*spanNode, len(recs))
	byID := make(map[string]*spanNode, len(recs))
	var bench []*spanNode
	for i, r := range recs {
		n := &spanNode{rec: r, start: r.StartUnixNano, end: r.StartUnixNano + r.DurationNS}
		nodes[i] = n
		byID[r.TraceID+"/"+r.SpanID] = n
		if strings.HasPrefix(r.Name, benchPrefix) {
			bench = append(bench, n)
		}
	}
	// bench is sorted by start because recs is.
	for _, n := range nodes {
		if p, ok := byID[n.rec.TraceID+"/"+n.rec.ParentID]; ok && n.rec.ParentID != "" {
			p.children = append(p.children, n)
			continue
		}
		if strings.HasPrefix(n.rec.Name, benchPrefix) {
			continue
		}
		if p := innermostContaining(bench, n); p != nil {
			p.children = append(p.children, n)
		}
	}
	aggs := map[string]*spanAgg{}
	for _, n := range nodes {
		a := aggs[n.rec.Name]
		if a == nil {
			a = &spanAgg{}
			aggs[n.rec.Name] = a
		}
		a.count++
		a.durNS += n.rec.DurationNS
		a.selfNS += n.rec.DurationNS - covered(n)
	}
	return aggs
}

// innermostContaining finds the latest-starting benchmark span whose
// interval contains n.
func innermostContaining(bench []*spanNode, n *spanNode) *spanNode {
	i := sort.Search(len(bench), func(i int) bool { return bench[i].start > n.start }) - 1
	for ; i >= 0; i-- {
		if b := bench[i]; b != n && b.end >= n.end {
			return b
		}
	}
	return nil
}

// covered measures how much of n's interval its children cover.
func covered(n *spanNode) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(n.children))
	for _, c := range n.children {
		a, b := max(c.start, n.start), min(c.end, n.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a > curB:
			total += curB - curA
			curA, curB = v.a, v.b
		case v.b > curB:
			curB = v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans dumps span records as a JSON array.
func writeSpans(path string, recs []obs.SpanRecord) error {
	blob, err := json.Marshal(recs)
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

// counterNames are the registry counters the traced run reads as deltas.
var counterNames = []string{
	"pas.chunk.reads", "pas.chunk.read_bytes", "pas.segment.opens",
	"pas.plane_cache.hits", "pas.plane_cache.misses", "pas.singleflight.dedup",
	"pas.progressive.low_order_bytes_avoided",
	"pas.segment.dedup_hits", "pas.segment.dedup_bytes_saved",
	"dnn.train.examples",
	"tensor.gemm.dispatch.parallel", "tensor.gemm.dispatch.inline",
	"tensor.gemm.chunks", "tensor.gemm.chunks.stolen",
	"hub.transfer.retries", "hub.transfer.resumes", "hub.transfer.digest_mismatch",
	"obs.traces.kept",
}

// histogramSums are registry histograms whose sums the traced run reads as
// deltas (bytes moved per transfer).
var histogramSums = []string{"hub.transfer.publish.bytes", "hub.transfer.pull.bytes"}

// counterSnapshot reads every counter and histogram sum named above.
func counterSnapshot() map[string]float64 {
	out := make(map[string]float64, len(counterNames)+len(histogramSums))
	for _, name := range counterNames {
		out[name] = float64(obs.GetCounter(name).Value())
	}
	for _, name := range histogramSums {
		out[name] = obs.GetHistogram(name).Snapshot().Sum
	}
	return out
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
