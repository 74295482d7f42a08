package modelhub

// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation (Sec. V). The figures' full sweeps are produced by
// `go run ./cmd/mhbench`; these testing.B benchmarks measure the kernels
// behind each experiment so regressions in the hot paths show up in
// `go test -bench`.
//
//	Table I   -> BenchmarkTable1ArchRegex
//	Fig 6(a)  -> BenchmarkFig6aEncode/<scheme>
//	Fig 6(b)  -> BenchmarkFig6bDelta/<op>
//	Fig 6(c)  -> BenchmarkFig6cPlan/<algo>
//	Fig 6(d)  -> BenchmarkFig6dProgressive, BenchmarkFig6dIntervalForward
//	Table IV  -> BenchmarkTable4Cell/<config>
//	Table V   -> BenchmarkTable5Retrieval/<plan>/<query>/<scheme>
//	Ablations -> BenchmarkAblationZlibLevel/<level>, BenchmarkAblationBudgetSplit
//	End2End   -> BenchmarkLifecycleCommit, BenchmarkDQLSelect

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"modelhub/internal/data"
	"modelhub/internal/delta"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/experiments"
	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/perturb"
	"modelhub/internal/synth"
	"modelhub/internal/tensor"
	"modelhub/internal/zoo"
)

// ---- shared fixtures (built once) ----

var (
	onceModel     sync.Once
	benchModel    *experiments.TrainedModel
	benchModelErr error
)

func trainedModel(b *testing.B) *experiments.TrainedModel {
	b.Helper()
	onceModel.Do(func() {
		benchModel, benchModelErr = experiments.TrainFixture("lenet", 400, 3, 1)
	})
	if benchModelErr != nil {
		b.Fatal(benchModelErr)
	}
	return benchModel
}

var (
	onceMat               sync.Once
	benchBase, benchDrift *tensor.Matrix
)

func driftedPair(b *testing.B) (*tensor.Matrix, *tensor.Matrix) {
	b.Helper()
	onceMat.Do(func() {
		rng := rand.New(rand.NewSource(7))
		benchBase = tensor.RandNormal(rng, 256, 256, 0.05)
		benchDrift = benchBase.Perturb(rng, 1e-4)
	})
	return benchBase, benchDrift
}

var (
	onceStore     sync.Once
	benchStores   map[string]*pas.Store
	benchStoreErr error
)

// storeFixtures archives one SD-style snapshot family under the three plans
// Table V compares.
func storeFixtures(b *testing.B) map[string]*pas.Store {
	b.Helper()
	onceStore.Do(func() {
		benchStores = map[string]*pas.Store{}
		rng := rand.New(rand.NewSource(11))
		base := map[string]*tensor.Matrix{
			"conv1": tensor.RandNormal(rng, 16, 40, 0.1),
			"ip1":   tensor.RandNormal(rng, 64, 300, 0.1),
			"ip2":   tensor.RandNormal(rng, 10, 65, 0.1),
		}
		var snaps []pas.SnapshotIn
		cur := base
		for i := 0; i < 6; i++ {
			snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
			for name, m := range cur {
				snap.Matrices[name] = m.Perturb(rng, 1e-3)
			}
			snaps = append(snaps, snap)
			cur = snap.Matrices
		}
		for _, cfg := range []struct {
			label string
			algo  string
			alpha float64
		}{
			{"materialization", "spt", 0},
			{"min-storage", "mst", 0},
			{"pas", "pas-mt", 1.6},
		} {
			dir, err := os.MkdirTemp("", "bench-store-*")
			if err != nil {
				benchStoreErr = err
				return
			}
			st, err := pas.Create(dir, snaps, pas.Options{Algorithm: cfg.algo, Alpha: cfg.alpha})
			if err != nil {
				benchStoreErr = err
				return
			}
			benchStores[cfg.label] = st
		}
	})
	if benchStoreErr != nil {
		b.Fatal(benchStoreErr)
	}
	return benchStores
}

// ---- Table I ----

func BenchmarkTable1ArchRegex(b *testing.B) {
	def := zoo.VGGMini("vgg")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := zoo.ArchRegex(def); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Fig 6(a): float representation schemes ----

func BenchmarkFig6aEncode(b *testing.B) {
	base, _ := driftedPair(b)
	for _, scheme := range experiments.Fig6aSchemes() {
		b.Run(scheme.String(), func(b *testing.B) {
			b.SetBytes(int64(4 * base.Len()))
			for i := 0; i < b.N; i++ {
				enc, err := floatenc.Encode(scheme, base)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := floatenc.Decode(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 6(b): delta schemes ----

func BenchmarkFig6bDelta(b *testing.B) {
	base, target := driftedPair(b)
	for _, op := range []delta.Op{delta.None, delta.Sub, delta.IntSub, delta.XOR} {
		b.Run(op.String(), func(b *testing.B) {
			b.SetBytes(int64(4 * target.Len()))
			for i := 0; i < b.N; i++ {
				if _, err := delta.MeasureDelta(op, base, target, false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Fig 6(c): plan optimization algorithms ----

func BenchmarkFig6cPlan(b *testing.B) {
	makeGraph := func() *pas.Graph {
		return synth.GenerateRD(synth.RDConfig{Snapshots: 30, MatricesPerSnapshot: 4, Seed: 13})
	}
	b.Run("mst", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.MST(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.LAST(g, 1.6); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pas-mt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, 1.6); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pas.PASMT(g, pas.Independent); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pas-pt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := makeGraph()
			if _, err := pas.SetBudgetsAlphaSPT(g, pas.Independent, 1.6); err != nil {
				b.Fatal(err)
			}
			if _, _, err := pas.PASPT(g, pas.Independent); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Fig 6(d): progressive evaluation ----

func BenchmarkFig6dIntervalForward(b *testing.B) {
	m := trainedModel(b)
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		b.Fatal(err)
	}
	src := perturb.NewSegmentedSource(m.Net.Snapshot())
	w := perturb.WeightBounds{Lo: map[string]*tensor.Matrix{}, Hi: map[string]*tensor.Matrix{}}
	for _, l := range m.Def.Nodes {
		if !l.Parametric() {
			continue
		}
		lo, hi, err := src.WeightIntervals(l.Name, 1)
		if err != nil {
			b.Fatal(err)
		}
		w.Lo[l.Name], w.Hi[l.Name] = lo, hi
	}
	in := m.Test[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ev.Forward(in, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6dProgressive(b *testing.B) {
	m := trainedModel(b)
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		b.Fatal(err)
	}
	src := perturb.NewSegmentedSource(m.Net.Snapshot())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex := m.Test[i%len(m.Test)]
		if _, err := perturb.Progressive(ev, src, ex.Input, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6dProgressiveBatch answers 16 examples per op with one
// batched progressive query over a PrefetchSource, the shape of a dlv
// progressive eval request.
func BenchmarkFig6dProgressiveBatch(b *testing.B) {
	m := trainedModel(b)
	ev, err := perturb.NewEvaluator(m.Def)
	if err != nil {
		b.Fatal(err)
	}
	names := perturb.ParametricNames(m.Def)
	src := perturb.NewPrefetchSource(perturb.NewSegmentedSource(m.Net.Snapshot()), names, 0)
	const batch = 16
	ins := make([]*dnn.Volume, batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ins {
			ins[j] = m.Test[(i*batch+j)%len(m.Test)].Input
		}
		if _, err := perturb.ProgressiveBatch(ev, src, ins, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6dFullForward(b *testing.B) {
	m := trainedModel(b)
	in := m.Test[0].Input
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Net.Predict(in)
	}
}

// ---- Table IV: delta performance under value schemes ----

func BenchmarkTable4Cell(b *testing.B) {
	base, target := driftedPair(b)
	configs := []struct {
		name     string
		bytewise bool
		norm     bool
	}{
		{"lossless", false, false},
		{"lossless-bytewise", true, false},
		{"normalized", false, true},
		{"normalized-bytewise", true, true},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(int64(4 * target.Len()))
			for i := 0; i < b.N; i++ {
				bb, tt := base, target
				if cfg.norm {
					bb, _ = floatenc.Normalize(base)
					tt, _ = floatenc.Normalize(target)
				}
				d, err := delta.Compute(delta.Sub, bb, tt)
				if err != nil {
					b.Fatal(err)
				}
				if cfg.bytewise {
					if _, err := delta.MeasureMatrixBytewise(d.Body); err != nil {
						b.Fatal(err)
					}
				} else if _, err := delta.MeasureMatrix(d.Body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Table V: snapshot retrieval ----

func BenchmarkTable5Retrieval(b *testing.B) {
	stores := storeFixtures(b)
	for _, plan := range []string{"materialization", "min-storage", "pas"} {
		st := stores[plan]
		for _, q := range []struct {
			label  string
			prefix int
		}{{"full", 4}, {"2bytes", 2}, {"1byte", 1}} {
			if plan != "pas" && q.prefix != 4 {
				continue // partial retrieval is the PAS feature under test
			}
			for _, scheme := range []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent} {
				name := fmt.Sprintf("%s/%s/%s", plan, q.label, scheme)
				b.Run(name, func(b *testing.B) {
					snaps := st.Snapshots()
					for i := 0; i < b.N; i++ {
						snap := snaps[i%len(snaps)]
						if _, err := st.GetSnapshot(snap, q.prefix, scheme); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// Retrieval-scheme shootout on a wider snapshot (many matrices per
// checkpoint), where dedup of shared chain prefixes and the persistent
// plane cache separate the schemes. Cold runs reopen the store each
// iteration; warm runs reuse one store so Reusable/Concurrent caches carry
// across iterations.
func BenchmarkRetrievalSchemes(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	base := map[string]*tensor.Matrix{}
	for m := 0; m < 8; m++ {
		base[fmt.Sprintf("layer%d", m)] = tensor.RandNormal(rng, 48, 160, 0.1)
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 8; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for name, m := range cur {
			snap.Matrices[name] = m.Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	dir, err := os.MkdirTemp("", "bench-retr-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if _, err := pas.Create(dir, snaps, pas.Options{Algorithm: "mst"}); err != nil {
		b.Fatal(err)
	}
	last := snaps[len(snaps)-1].ID
	for _, scheme := range []pas.Scheme{pas.Independent, pas.Parallel, pas.Reusable, pas.Concurrent} {
		for _, mode := range []string{"cold", "warm"} {
			b.Run(fmt.Sprintf("%s/%s", scheme, mode), func(b *testing.B) {
				st, err := pas.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "cold" {
						b.StopTimer()
						if st, err = pas.Open(dir); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					if _, err := st.GetSnapshot(last, 4, scheme); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkObsOverhead proves the observability layer's disabled path is
// near-free on the PAS retrieval hot path: "disabled" runs with the global
// gate off (every metric op is one atomic load + branch), "enabled" with
// full counters/histograms live, and "tracing" with trace collection on
// top — every retrieval becomes a root trace, published into the ring
// collector. The disabled number must stay within noise of the pre-obs
// baseline; tracing must stay within a few percent of enabled.
func BenchmarkObsOverhead(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	base := map[string]*tensor.Matrix{}
	for m := 0; m < 6; m++ {
		base[fmt.Sprintf("layer%d", m)] = tensor.RandNormal(rng, 48, 120, 0.1)
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 6; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for name, m := range cur {
			snap.Matrices[name] = m.Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	dir, err := os.MkdirTemp("", "bench-obs-*")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	if _, err := pas.Create(dir, snaps, pas.Options{Algorithm: "mst"}); err != nil {
		b.Fatal(err)
	}
	last := snaps[len(snaps)-1].ID
	for _, mode := range []string{"disabled", "enabled", "tracing"} {
		b.Run(mode, func(b *testing.B) {
			switch mode {
			case "enabled":
				obs.Enable()
				defer obs.Disable()
			case "tracing":
				obs.Enable()
				obs.EnableTracing()
				obs.SetTraceBufferSize(64)
				defer func() {
					obs.SetTraceBufferSize(obs.DefaultTraceBufferSize)
					obs.DisableTracing()
					obs.Disable()
				}()
			default:
				obs.Disable()
			}
			st, err := pas.Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := st.GetSnapshotCtx(ctx, last, 4, pas.Concurrent); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- Ablations ----

func BenchmarkAblationZlibLevel(b *testing.B) {
	base, _ := driftedPair(b)
	seg := floatenc.Segment(base)
	for _, level := range []int{1, 6, 9} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			b.SetBytes(int64(len(seg.Planes[0]) * floatenc.NumPlanes))
			for i := 0; i < b.N; i++ {
				for p := 0; p < floatenc.NumPlanes; p++ {
					if _, err := floatenc.Deflate(seg.Planes[p], level); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkAblationBudgetSplit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationBudgetSplit(17, []float64{1.6}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- end-to-end lifecycle kernels ----

func BenchmarkLifecycleCommit(b *testing.B) {
	m := trainedModel(b)
	dir := b.TempDir()
	repo, err := dlv.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	snap := m.Net.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Commit(dlv.CommitInput{
			Name:   fmt.Sprintf("bench-%d", i),
			NetDef: m.Def,
			Final:  snap,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDQLSelect(b *testing.B) {
	m := trainedModel(b)
	dir := b.TempDir()
	repo, err := dlv.Init(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := repo.Commit(dlv.CommitInput{
			Name:   fmt.Sprintf("alexnet_v%d", i),
			NetDef: m.Def,
		}); err != nil {
			b.Fatal(err)
		}
	}
	eng := newEngine(repo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(`select m where m.name like "alexnet_%" and m["conv[1,2]"].next has POOL("MAX")`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainingStep(b *testing.B) {
	m := trainedModel(b)
	net, err := dnn.Build(m.Def, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ex := m.Test[0]
	opt := &dnn.SGD{LR: 0.01}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		net.LossAndBackward(ex.Input, ex.Label)
		opt.Step(net, 1)
	}
}

// newEngine adapts the dql engine constructor without importing it at the
// top for readability of the bench list.
func newEngine(repo *dlv.Repo) *dql.Engine { return dql.NewEngine(repo) }

// ---- training substrate kernels (mhbench -exp training) ----

// conv3Net is a conv-dominated 3-conv chain for the conv kernel benchmark.
func conv3Net() *dnn.NetDef {
	return dnn.ChainDef("conv3", 1, 24, 24, 10,
		dnn.LayerSpec{Name: "conv1", Kind: dnn.KindConv, Out: 8, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu1", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv2", Kind: dnn.KindConv, Out: 12, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu2", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "conv3", Kind: dnn.KindConv, Out: 16, K: 3, Stride: 1, Pad: 1},
		dnn.LayerSpec{Name: "relu3", Kind: dnn.KindReLU},
		dnn.LayerSpec{Name: "fc", Kind: dnn.KindFull, Out: 10},
		dnn.LayerSpec{Name: "prob", Kind: dnn.KindSoftmax},
	)
}

// BenchmarkConvForward times the im2col/GEMM convolution kernel on a
// batch-16 forward pass through a 3-conv network.
func BenchmarkConvForward(b *testing.B) {
	net, err := dnn.Build(conv3Net(), rand.New(rand.NewSource(3)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const batch = 16
	batchIn := make([]*dnn.Volume, batch)
	for i := range batchIn {
		v := dnn.NewVolume(dnn.Shape{C: 1, H: 24, W: 24})
		for j := range v.Data {
			v.Data[j] = float32(rng.NormFloat64())
		}
		batchIn[i] = v
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, in := range batchIn {
			net.Forward(in)
		}
	}
}

// BenchmarkGemm compares the reference triple loop against the blocked
// kernel at 1 worker and at GOMAXPROCS.
func BenchmarkGemm(b *testing.B) {
	const n = 192
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandNormal(rng, n, n, 1)
	c := tensor.RandNormal(rng, n, n, 1)
	out := tensor.NewMatrix(n, n)
	flops := int64(2 * n * n * n)
	b.Run("ref", func(b *testing.B) {
		b.SetBytes(flops)
		for i := 0; i < b.N; i++ {
			if _, err := a.MatMulRef(c); err != nil {
				b.Fatal(err)
			}
		}
	})
	workerCounts := []int{1}
	if w := tensor.GemmWorkers(); w > 1 {
		workerCounts = append(workerCounts, w)
	}
	for _, workers := range workerCounts {
		b.Run(fmt.Sprintf("gemm-w%d", workers), func(b *testing.B) {
			prev := tensor.SetGemmWorkers(workers)
			defer tensor.SetGemmWorkers(prev)
			b.SetBytes(flops)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tensor.Gemm(out, a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvaluateGrid measures parallel model enumeration (DQL evaluate,
// Query 4) at 1 worker vs the machine default.
func BenchmarkEvaluateGrid(b *testing.B) {
	repo, err := dlv.Init(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := repo.Commit(dlv.CommitInput{Name: "lenet", NetDef: zoo.LeNet("lenet")}); err != nil {
		b.Fatal(err)
	}
	eng := newEngine(repo)
	eng.Seed = 9
	eng.RegisterDataset("digits", data.Digits(rand.New(rand.NewSource(9)), 160, 0.05))
	const query = `evaluate m
		from (select m1 where m1.name = "lenet")
		vary config.base_lr in [0.1, 0.01] and config.momentum in [0, 0.9]
		keep top(4, m["loss"], 4)`
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			eng.SetWorkers(cfg.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Run(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// DAG executor overhead vs the plain chain (residual model forward).
func BenchmarkDAGForwardSkip(b *testing.B) {
	n, err := dnn.Build(zoo.ResNetSkip("r"), rand.New(rand.NewSource(21)))
	if err != nil {
		b.Fatal(err)
	}
	in := dnn.NewVolume(dnn.Shape{C: 1, H: 12, W: 12})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(in)
	}
}

// Archive creation (candidate measurement + plan optimization + chunk
// writes), matrix-granular vs plane-granular.
func BenchmarkArchiveCreate(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	base := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 16, 40, 0.1),
		"ip1":   tensor.RandNormal(rng, 48, 200, 0.1),
	}
	var snaps []pas.SnapshotIn
	cur := base
	for i := 0; i < 4; i++ {
		snap := pas.SnapshotIn{ID: fmt.Sprintf("s%d", i), Matrices: map[string]*tensor.Matrix{}}
		for name, m := range cur {
			snap.Matrices[name] = m.Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	for _, cfg := range []struct {
		name  string
		plane bool
	}{{"matrix", false}, {"plane", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp("", "bench-create-*")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := pas.Create(dir, snaps, pas.Options{
					Algorithm: "pas-mt", Alpha: 1.6, PlaneGranularity: cfg.plane,
				}); err != nil {
					b.Fatal(err)
				}
				os.RemoveAll(dir)
			}
		})
	}
}
