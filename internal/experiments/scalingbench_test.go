package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestRunScalingSmoke runs a tiny two-point sweep and checks the invariants
// the full benchmark relies on: every bench appears at every procs point,
// GOMAXPROCS is restored, and the dispatcher counters registered activity.
func TestRunScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling sweep trains networks; skipped in -short")
	}
	prevProcs := runtime.GOMAXPROCS(0)
	rows, err := RunScaling(ScalingConfig{Procs: []int{1, 2}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.GOMAXPROCS(0); got != prevProcs {
		t.Fatalf("GOMAXPROCS not restored: %d, want %d", got, prevProcs)
	}

	perProcs := map[int]map[string]bool{}
	for _, r := range rows {
		if perProcs[r.Procs] == nil {
			perProcs[r.Procs] = map[string]bool{}
		}
		perProcs[r.Procs][r.Bench] = true
		if r.Ops <= 0 || r.NsPerOp <= 0 || r.OpsPerSec <= 0 {
			t.Errorf("%s procs=%d workers=%d: degenerate stats %+v", r.Bench, r.Procs, r.Workers, r)
		}
	}
	want := []string{"gemm", "conv_forward", "conv_backward", "train_step", "dql_evaluate"}
	for _, procs := range []int{1, 2} {
		for _, b := range want {
			if !perProcs[procs][b] {
				t.Errorf("missing bench %q at procs=%d", b, procs)
			}
		}
	}

	// The parallel GEMM cells must have exercised the chunked dispatcher.
	var chunked bool
	for _, r := range rows {
		if r.Bench == "gemm" && r.Workers == 0 && r.Procs > 1 && r.GemmChunks > 0 {
			chunked = true
		}
	}
	if !chunked {
		t.Error("no gemm cell recorded dispatcher chunks at procs>1")
	}
}

// TestWriteScalingJSON checks the result-file shape: a meta block naming the
// hardware plus the row array.
func TestWriteScalingJSON(t *testing.T) {
	rows := []ScalingRow{{Bench: "gemm", Procs: 1, Ops: 3, NsPerOp: 10, OpsPerSec: 1e8, Speedup: 1}}
	path := filepath.Join(t.TempDir(), "BENCH_scaling.json")
	if err := WriteScalingJSON(path, rows, RunMeta()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Description string       `json:"description"`
		Meta        Meta         `json:"meta"`
		Benchmarks  []ScalingRow `json:"benchmarks"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.Meta.NumCPU != runtime.NumCPU() || doc.Meta.GoVersion != runtime.Version() {
		t.Fatalf("meta block not stamped: %+v", doc.Meta)
	}
	if doc.Meta.Timestamp == "" || doc.Meta.OS != runtime.GOOS || doc.Meta.Arch != runtime.GOARCH {
		t.Fatalf("meta block incomplete: %+v", doc.Meta)
	}
	if len(doc.Benchmarks) != 1 || doc.Benchmarks[0].Bench != "gemm" {
		t.Fatalf("benchmarks round-trip failed: %+v", doc.Benchmarks)
	}
	if doc.Description == "" {
		t.Fatal("description missing")
	}
}
