package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"time"

	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/obs"
	"modelhub/internal/tensor"
)

// Multicore scaling experiment (mhbench -exp scaling): sweeps GOMAXPROCS ×
// worker counts across the compute core's hot paths — raw GEMM, conv
// forward and forward+backward passes, full training steps, and concurrent
// DQL evaluate — and records throughput,
// per-op allocation, and the GEMM dispatcher's chunk/steal counters into
// BENCH_scaling.json. This is the throughput proof the ROADMAP's service
// items build on; the embedded Meta block says what hardware the curve came
// from, because a 1-vCPU container cannot show a multicore speedup and must
// not pretend to.

// ScalingConfig sizes the sweep.
type ScalingConfig struct {
	// Procs are the GOMAXPROCS points; default {1, 2, 4}.
	Procs []int
	// Scale multiplies per-op workload sizes.
	Scale int
	Seed  int64
}

func (c ScalingConfig) withDefaults() ScalingConfig {
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4}
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	return c
}

// ScalingRow is one (bench, procs, workers) cell.
type ScalingRow struct {
	Bench       string  `json:"bench"`
	Procs       int     `json:"procs"`
	Workers     int     `json:"workers"` // effective compute workers (0 = follows procs)
	Ops         int     `json:"ops"`
	NsPerOp     int64   `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	// Speedup is throughput relative to the same bench at the sweep's first
	// procs point (with workers following procs).
	Speedup float64 `json:"speedup"`
	// GemmChunks/GemmStolen are tensor.gemm.* counter deltas across the
	// cell: chunks claimed by the work-stealing dispatcher, and chunks
	// claimed beyond a participant's fair share.
	GemmChunks int64 `json:"gemm_chunks"`
	GemmStolen int64 `json:"gemm_chunks_stolen"`
}

// measureScaling runs op() n times and fills timing and allocation stats.
func measureScaling(bench string, procs, workers, n int, op func()) ScalingRow {
	chunks := obs.GetCounter("tensor.gemm.chunks")
	stolen := obs.GetCounter("tensor.gemm.chunks.stolen")
	c0, s0 := chunks.Value(), stolen.Value()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		op()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return ScalingRow{
		Bench:       bench,
		Procs:       procs,
		Workers:     workers,
		Ops:         n,
		NsPerOp:     elapsed.Nanoseconds() / int64(n),
		OpsPerSec:   float64(n) / elapsed.Seconds(),
		AllocsPerOp: float64(m1.Mallocs-m0.Mallocs) / float64(n),
		BytesPerOp:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		GemmChunks:  chunks.Value() - c0,
		GemmStolen:  stolen.Value() - s0,
	}
}

// RunScaling executes the sweep. It temporarily overrides GOMAXPROCS (and
// restores it), enables the obs registry for the dispatcher counters, and
// verifies at every point that parallel results stay bit-identical to the
// single-proc baseline. The timed closures panic on kernel or query errors:
// the fixtures are built by this function itself, so a failure mid-loop is
// an invariant violation, not an input condition.
func RunScaling(cfg ScalingConfig) ([]ScalingRow, error) {
	cfg = cfg.withDefaults()
	prevProcs := runtime.GOMAXPROCS(0)
	prevWorkers := tensor.SetGemmWorkers(0)
	prevObs := obs.Enabled()
	obs.Enable()
	defer func() {
		runtime.GOMAXPROCS(prevProcs)
		tensor.SetGemmWorkers(prevWorkers)
		if !prevObs {
			obs.Disable()
		}
	}()

	// --- fixtures (built once; per-cell state is reset deterministically) ---
	sc := cfg.Scale
	rng := rand.New(rand.NewSource(cfg.Seed))
	gm, gk, gn := 192*sc, 128, 160
	ga, gb := randomMatrix(rng, gm, gk), randomMatrix(rng, gk, gn)
	gout := tensor.NewMatrix(gm, gn)
	gemmRef := tensor.NewMatrix(gm, gn)

	net, err := dnn.Build(trainingNet("scalingnet"), rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		return nil, err
	}
	examples := data.Digits(rand.New(rand.NewSource(cfg.Seed+2)), 64*sc, 0.05)
	in := examples[0].Input

	// DQL fixture: a small repo + engine running a 4-candidate grid.
	dir, err := os.MkdirTemp("", "mh-scaling-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	repo, err := dlv.Init(dir)
	if err != nil {
		return nil, err
	}
	if _, err := repo.Commit(dlv.CommitInput{Name: "conv3net", NetDef: trainingNet("conv3net")}); err != nil {
		return nil, err
	}
	eng := dql.NewEngine(repo)
	eng.Seed = cfg.Seed
	eng.RegisterDataset("digits", examples)
	dqlQuery := fmt.Sprintf(`evaluate m
		from (select m1 where m1.name = "conv3net")
		vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9]
		keep top(4, m["loss"], %d)`, 2*sc)

	sgd := &dnn.SGD{LR: 0.01}
	trainStep := func() {
		net.ZeroGrads()
		for b := 0; b < 4; b++ {
			net.LossAndBackward(examples[b].Input, examples[b].Label)
		}
		sgd.Step(net, 4)
	}

	var rows []ScalingRow
	base := map[string]float64{} // bench -> ops/sec at the first procs point
	var dqlBaseline []dql.Candidate

	for pi, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		tensor.SetGemmWorkers(0) // follow GOMAXPROCS

		addRow := func(r ScalingRow) {
			if pi == 0 && r.Workers == 0 {
				base[r.Bench] = r.OpsPerSec
			}
			if b := base[r.Bench]; b > 0 {
				r.Speedup = r.OpsPerSec / b
			}
			rows = append(rows, r)
		}

		// GEMM: workers follows procs, plus a serial point for contrast.
		addRow(measureScaling("gemm", procs, 0, 30, func() {
			if err := tensor.Gemm(gout, ga, gb); err != nil {
				panic(err)
			}
		}))
		if pi == 0 {
			copy(gemmRef.Data(), gout.Data()) // single-proc reference output
		} else if !gout.Equal(gemmRef) {
			return nil, fmt.Errorf("scaling: GEMM diverged from single-proc reference at procs=%d", procs)
		}
		tensor.SetGemmWorkers(1)
		addRow(measureScaling("gemm", procs, 1, 30, func() {
			if err := tensor.Gemm(gout, ga, gb); err != nil {
				panic(err)
			}
		}))
		if !gout.Equal(gemmRef) {
			return nil, fmt.Errorf("scaling: serial GEMM diverged at procs=%d", procs)
		}
		tensor.SetGemmWorkers(0)

		// Conv forward and forward+backward through the 3-conv net.
		addRow(measureScaling("conv_forward", procs, 0, 40*sc, func() { net.Forward(in) }))
		addRow(measureScaling("conv_backward", procs, 0, 20*sc, func() {
			net.ZeroGrads()
			net.LossAndBackward(in, examples[0].Label)
		}))

		// Full training step on warm scratch buffers.
		trainStep()
		addRow(measureScaling("train_step", procs, 0, 10*sc, trainStep))

		// Concurrent DQL evaluate: serial vs procs-wide enumeration.
		for _, workers := range []int{1, procs} {
			if workers == 1 && procs == 1 && pi > 0 {
				break
			}
			eng.SetWorkers(workers)
			var got []dql.Candidate
			r := measureScaling("dql_evaluate", procs, workers, 1, func() {
				res, err := eng.Run(dqlQuery)
				if err != nil {
					panic(err)
				}
				got = res.Candidates
			})
			if workers == 1 {
				r.Workers = 1
			}
			if dqlBaseline == nil {
				dqlBaseline = got
				base["dql_evaluate"] = r.OpsPerSec
			} else if err := checkCandidates(dqlBaseline, got); err != nil {
				return nil, fmt.Errorf("scaling: dql evaluate diverged at procs=%d workers=%d: %w", procs, workers, err)
			}
			if b := base["dql_evaluate"]; b > 0 {
				r.Speedup = r.OpsPerSec / b
			}
			rows = append(rows, r)
			if procs == 1 {
				break // workers==procs would repeat the serial cell
			}
		}
	}
	return rows, nil
}

// randomMatrix fills a matrix from rng.
func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	d := m.Data()
	for i := range d {
		d[i] = float32(rng.NormFloat64())
	}
	return m
}

// PrintScaling renders the sweep as a table.
func PrintScaling(w io.Writer, rows []ScalingRow) {
	fprintf(w, "Multicore compute-core scaling (work-stealing GEMM dispatch + scratch arena)\n")
	fprintf(w, "%-18s %-6s %-8s %12s %10s %12s %12s %8s %8s\n",
		"BENCH", "PROCS", "WORKERS", "NS/OP", "SPEEDUP", "ALLOCS/OP", "B/OP", "CHUNKS", "STOLEN")
	for _, r := range rows {
		workers := fmt.Sprintf("%d", r.Workers)
		if r.Workers == 0 {
			workers = fmt.Sprintf("%d*", r.Procs) // follows GOMAXPROCS
		}
		fprintf(w, "%-18s %-6d %-8s %12d %10.2f %12.1f %12.0f %8d %8d\n",
			r.Bench, r.Procs, workers, r.NsPerOp, r.Speedup, r.AllocsPerOp, r.BytesPerOp, r.GemmChunks, r.GemmStolen)
	}
	fprintf(w, "(* workers follow GOMAXPROCS; stolen = chunks claimed beyond a fair share)\n")
}

// WriteScalingJSON records the sweep with its hardware metadata.
func WriteScalingJSON(path string, rows []ScalingRow, meta Meta) error {
	doc := map[string]any{
		"description": "GOMAXPROCS x workers sweep over GEMM, conv forward/backward, full training steps, and concurrent DQL evaluate (mhbench -exp scaling). speedup is ops/sec relative to the first procs point; gemm_chunks/stolen are the work-stealing dispatcher's claim counters. Scaling beyond 1x requires the hardware in meta to have more than one CPU.",
		"meta":        meta,
		"benchmarks":  rows,
	}
	blob, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
