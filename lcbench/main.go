// Command lcbench is the repository's end-to-end benchmark: it drives the
// ModelHub lifecycle through the public entry points a dlv user hits, on a
// seeded synthetic SD repository, and checks every result.
//
// Workloads (one closed-loop client each):
//
//	checkout   cold core.Open, then a full-precision Repo.Weights or a DQL select
//	predict    warm workspace: Repo.EvalProgressiveTopK then Repo.Eval, 16 examples
//	lifecycle  TrainAndCommit -> Repo.Archive -> PublishWith -> PullWith
//
// With -trace 0 the last line of standard output reports the end-to-end
// metrics; with -trace 1 it reports the per-layer metrics of a traced run.
// README.md maps every metric to the layer and workload it belongs to.
//
// Run it through run.sh, which builds it from the checkout:
//
//	bash lcbench/run.sh --workload checkout --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"modelhub/internal/pas"
	"modelhub/internal/synth"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// work is the directory scratch repositories and span dumps go to.
	work   string
	commit string
	// shape sizes the SD repository; Seed is taken from seed.
	shape synth.SDConfig
}

// setupRuns is how many times an untraced run sets up, for the setup_s
// median.
const setupRuns = 3

// defaultShape is the SD repository every workload runs on: 8 LeNet-shaped
// versions x 4 snapshots (synth's defaults, spelled out so the metadata
// names them).
var defaultShape = synth.SDConfig{Versions: 8, SnapshotsPerVersion: 4, ItersPerSnapshot: 8, TrainExamples: 300}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opSummary is one op type's line of the detail record.
type opSummary struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Samples   int     `json:"samples"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
}

// detail is printed as the line before the result: run metadata and
// per-op attempted/failed counts.
type detail struct {
	Meta      map[string]any       `json:"meta"`
	Ops       map[string]opSummary `json:"ops"`
	SpansFile string               `json:"spans_file,omitempty"`
}

func main() {
	cfg := config{shape: defaultShape}
	flag.StringVar(&cfg.workload, "workload", "", "workload: checkout, predict or lifecycle")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the SD repository and of every request draw")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the untraced end-to-end run")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for scratch repositories and span dumps")
	flag.StringVar(&cfg.commit, "commit", "unknown", "commit being measured, recorded in the metadata")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "lcbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = *trace == 1
	res, det, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcbench:", err)
		os.Exit(1)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(det); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
}

// run performs set-up and the measured phases and assembles the result.
func run(cfg config) (*result, *detail, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	if cfg.seconds <= 0 {
		return nil, nil, fmt.Errorf("-seconds must be positive")
	}
	work, err := filepath.Abs(cfg.work)
	if err != nil {
		return nil, nil, err
	}
	scratch := filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid()))
	tmp := filepath.Join(scratch, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(scratch)
	// Hub transfers spool through temp files; keep them in the scratch dir.
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	os.Setenv("TMPDIR", tmp)

	setups := setupRuns
	if cfg.trace {
		setups = 1
	}
	var e *env
	var setupS []float64
	for k := 0; k < setups; k++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		e, err = setup(cfg, w, filepath.Join(scratch, fmt.Sprintf("setup-%d", k)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer e.close()

	r := newRunner(e, w, cfg.seed)
	det := &detail{Meta: meta(cfg, e), Ops: map[string]opSummary{}}
	res := &result{Metrics: map[string]metric{}}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		r.phase(measure, 0)
		endToEnd(res, r, w, median(setupS), e)
		summarize(det, "", r.ops)
	} else {
		layers, err := tracedRun(cfg, r, w, measure, det, work)
		if err != nil {
			return nil, nil, err
		}
		res.Metrics = layers
	}
	for _, s := range det.Ops {
		res.Attempted += s.Attempted
		res.Failed += s.Failed
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, det, nil
}

// setup builds the fixture and the workload's own state in dir.
func setup(cfg config, w *workload, dir string) (*env, error) {
	shape := cfg.shape
	shape.Seed = cfg.seed
	fx, err := buildFixture(filepath.Join(dir, "sd"), shape)
	if err != nil {
		return nil, err
	}
	e := &env{fx: fx, seed: cfg.seed, scratch: dir}
	if err := w.setup(e); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// endToEnd fills the untraced run's metrics.
func endToEnd(res *result, r *runner, w *workload, setupS float64, e *env) {
	head := r.stat(w.headline).ms
	storage := e.fx.storageRatio()
	if len(r.ratios) > 0 {
		storage = median(r.ratios)
	}
	res.Metrics["setup_s"] = metric{setupS, "s"}
	res.Metrics["p50_ms"] = metric{percentile(head, 0.50), "ms"}
	res.Metrics["p95_ms"] = metric{percentile(head, 0.95), "ms"}
	res.Metrics["aux_p50_ms"] = metric{median(r.stat(w.aux).ms), "ms"}
	res.Metrics["storage_ratio"] = metric{storage, "ratio"}
}

// summarize adds a phase's op statistics to the detail record, each op
// name prefixed by phase.
func summarize(det *detail, phase string, ops map[string]*opStats) {
	for name, s := range ops {
		det.Ops[phase+name] = opSummary{Attempted: s.attempted, Failed: s.failed, Samples: len(s.ms),
			P50MS: percentile(s.ms, 0.5), P95MS: percentile(s.ms, 0.95)}
	}
}

// meta describes the machine, the build and the inputs of a run.
func meta(cfg config, e *env) map[string]any {
	shape := cfg.shape
	versions, snaps := len(e.fx.versions), 0
	for _, v := range e.fx.versions {
		snaps += len(v.Snapshots)
	}
	return map[string]any{
		"workload":                cfg.workload,
		"trace":                   cfg.trace,
		"seed":                    cfg.seed,
		"seconds":                 cfg.seconds,
		"cpu_model":               cpuModel(),
		"nproc":                   runtime.NumCPU(),
		"gomaxprocs":              runtime.GOMAXPROCS(0),
		"go_version":              runtime.Version(),
		"commit":                  cfg.commit,
		"sd_versions":             versions,
		"sd_snapshots":            snaps,
		"sd_iters_per_snapshot":   shape.ItersPerSnapshot,
		"sd_train_examples":       shape.TrainExamples,
		"raw_bytes":               e.fx.rawBytes,
		"archived_bytes":          e.fx.archivedBytes,
		"archive":                 "pas-mt alpha=2 scheme=independent",
		"plane_cache_limit_bytes": pas.DefaultPlaneCacheBytes,
		"flush_policy":            "program default: fsync on every durable write",
		"load":                    "closed loop, one client, one process",
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
