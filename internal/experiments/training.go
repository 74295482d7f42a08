package experiments

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"time"

	"modelhub/internal/data"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
)

// Training-substrate experiment (beyond the paper's figures): the model
// enumeration workload (DQL evaluate, Query 4) is dominated by DNN
// training, so this measures candidates/sec and training examples/sec
// across enumeration worker counts, and checks that every worker count
// returns candidates bit-identical to sequential execution.

// TrainingRow is one worker-count cell.
type TrainingRow struct {
	Workers    int
	Candidates int
	Elapsed    time.Duration
	CandPerSec float64
	ExPerSec   float64 // training examples consumed per second
}

// TrainingConfig sizes the workload.
type TrainingConfig struct {
	Iters    int   // training iterations per candidate
	Batch    int   // minibatch size
	Examples int   // dataset size (80/20 train/test split)
	Workers  []int // enumeration worker counts to sweep
	Seed     int64
}

func (c TrainingConfig) withDefaults() TrainingConfig {
	if c.Iters == 0 {
		c.Iters = 8
	}
	if c.Batch == 0 {
		c.Batch = 8
	}
	if c.Examples == 0 {
		c.Examples = 240
	}
	if len(c.Workers) == 0 {
		c.Workers = []int{1, 2, 4}
	}
	return c
}

// trainingNet is the 3-conv benchmark network.
func trainingNet(name string) *dnn.NetDef {
	return dnn.ChainDef(name, 1, data.DigitSize, data.DigitSize, data.NumDigits,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 12, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool1", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "conv3", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu3", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "pool2", Kind: dnn.KindPool, K: 2, Mode: dnn.PoolMax},
		dnn.LayerSpec{Name: "fc1", Kind: dnn.KindFull, Out: 48},
		dnn.LayerSpec{Name: "relu4", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc2", Kind: dnn.KindFull, Out: data.NumDigits},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// trainingQuery enumerates an 8-candidate hyperparameter grid.
func trainingQuery(iters int) string {
	return fmt.Sprintf(`evaluate m
		from (select m1 where m1.name = "conv3net")
		vary config.base_lr in [0.1, 0.05, 0.01, 0.005] and config.momentum in [0, 0.9]
		keep top(8, m["loss"], %d)`, iters)
}

// RunTraining measures the enumeration grid across worker counts. The
// sequential run is the correctness baseline every worker count must match
// bit-exactly.
func RunTraining(cfg TrainingConfig) ([]TrainingRow, error) {
	cfg = cfg.withDefaults()
	dir, err := os.MkdirTemp("", "mh-training-*")
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
	rng := rand.New(rand.NewSource(cfg.Seed))
	eng.RegisterDataset("digits", data.Digits(rng, cfg.Examples, 0.05))
	query := trainingQuery(cfg.Iters)

	run := func(workers int) ([]dql.Candidate, time.Duration, error) {
		eng.SetWorkers(workers)
		start := time.Now()
		res, err := eng.Run(query)
		if err != nil {
			return nil, 0, err
		}
		return res.Candidates, time.Since(start), nil
	}

	// Correctness baseline: sequential.
	baseline, _, err := run(1)
	if err != nil {
		return nil, err
	}

	var rows []TrainingRow
	for _, workers := range cfg.Workers {
		cands, elapsed, err := run(workers)
		if err != nil {
			return nil, fmt.Errorf("workers=%d: %w", workers, err)
		}
		if err := checkCandidates(baseline, cands); err != nil {
			return nil, fmt.Errorf("workers=%d: %w", workers, err)
		}
		sec := elapsed.Seconds()
		rows = append(rows, TrainingRow{
			Workers:    workers,
			Candidates: len(cands),
			Elapsed:    elapsed,
			CandPerSec: float64(len(cands)) / sec,
			ExPerSec:   float64(len(cands)*cfg.Iters*cfg.Batch) / sec,
		})
	}
	return rows, nil
}

// checkCandidates requires a run to match the sequential baseline exactly:
// bit-identical losses and accuracies in the same survivor order.
func checkCandidates(baseline, got []dql.Candidate) error {
	if len(got) != len(baseline) {
		return fmt.Errorf("got %d candidates, baseline %d", len(got), len(baseline))
	}
	for i, c := range got {
		b := baseline[i]
		if math.Float64bits(c.Loss) != math.Float64bits(b.Loss) ||
			math.Float64bits(c.Acc) != math.Float64bits(b.Acc) {
			return fmt.Errorf("candidate %d: (loss %v, acc %v) != baseline (loss %v, acc %v)",
				i, c.Loss, c.Acc, b.Loss, b.Acc)
		}
	}
	return nil
}

// PrintTraining renders the per-worker-count throughput table.
func PrintTraining(w io.Writer, rows []TrainingRow) {
	fprintf(w, "Model enumeration training substrate (8-candidate grid, 3-conv net)\n")
	fprintf(w, "%-8s %-6s %12s %12s %14s\n", "WORKERS", "CANDS", "ELAPSED", "CAND/S", "TRAIN-EX/S")
	for _, r := range rows {
		fprintf(w, "%-8d %-6d %12s %12.2f %14.0f\n",
			r.Workers, r.Candidates, r.Elapsed.Round(time.Millisecond), r.CandPerSec, r.ExPerSec)
	}
}
