package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"modelhub/internal/core"
	"modelhub/internal/dlv"
	"modelhub/internal/dnn"
	"modelhub/internal/dql"
	"modelhub/internal/hub"
	"modelhub/internal/obs"
	"modelhub/internal/pas"
	"modelhub/internal/tensor"
)

// Op names. Each is timed on its own and roots its own trace.
const (
	opCheckout    = "checkout"     // core.Open + Repo.Weights
	opQuery       = "query"        // core.Open + ModelHub.Query
	opPredict     = "predict"      // Repo.EvalProgressiveTopK, 16 examples
	opEval        = "eval"         // Repo.Eval, the same 16 examples
	opTrainCommit = "train_commit" // core.Open + TrainAndCommit
	opArchive     = "archive"      // Repo.Archive
	opPublish     = "publish"      // ModelHub.PublishWith
	opPull        = "pull"         // core.PullWith
	// opIteration is one whole lifecycle request: the four ops above in
	// order. It has no span of its own.
	opIteration = "iteration"
)

var allOps = []string{opCheckout, opQuery, opPredict, opEval, opTrainCommit, opArchive, opPublish, opPull}

// predictBatch is the number of held-out examples in one predict request.
const predictBatch = 16

// poolSize is the number of held-out examples requests draw from.
const poolSize = 256

// workload is one closed-loop request mix. headline and aux name the ops
// behind the end-to-end metrics p50_ms/p95_ms and aux_p50_ms.
type workload struct {
	name, headline, aux string
	// tracesPerRequest bounds the traces one request can leave in the
	// trace collector, which sizes the collector of the traced run.
	tracesPerRequest int
	setup            func(e *env) error
	request          func(r *runner)
}

var workloads = []*workload{
	{name: "checkout", headline: opCheckout, aux: opQuery, tracesPerRequest: 2,
		setup: setupCheckout, request: checkoutRequest},
	{name: "predict", headline: opPredict, aux: opEval, tracesPerRequest: 4,
		setup: setupPredict, request: predictRequest},
	{name: "lifecycle", headline: opIteration, aux: opArchive, tracesPerRequest: 8,
		setup: setupLifecycle, request: lifecycleRequest},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (checkout, predict, lifecycle)", name)
}

// env is a workload's state after set-up.
type env struct {
	fx      *fixture
	seed    int64
	scratch string

	// checkout
	queries []queryCase

	// predict: one long-lived workspace, the held-out pool, and per
	// version the full-precision top-1 label of every pool example.
	mh    *core.ModelHub
	pool  []dnn.Example
	exact map[int64][]int

	// lifecycle: an in-process hub server on loopback.
	hubURL   string
	hubClose func() error
}

func (e *env) close() error {
	if e.hubClose != nil {
		return e.hubClose()
	}
	return nil
}

func setupCheckout(e *env) error {
	e.queries = queryCases(e.fx.versions)
	return nil
}

// setupPredict opens the long-lived workspace, captures full-precision
// labels from the raw weights, and warms the plane cache with one pass
// over every version at every byte-plane prefix.
func setupPredict(e *env) error {
	mh, err := core.Open(e.fx.root)
	if err != nil {
		return err
	}
	e.mh = mh
	e.pool = core.TestSet(poolSize, e.seed)
	e.exact = map[int64][]int{}
	for _, v := range e.fx.versions {
		net, err := dnn.Build(v.NetDef, rand.New(rand.NewSource(0)))
		if err != nil {
			return err
		}
		if err := net.Restore(e.fx.raw[snapKey{v.ID, dlv.LatestSnap}]); err != nil {
			return err
		}
		labels := make([]int, len(e.pool))
		for i, ex := range e.pool {
			labels[i] = net.Predict(ex.Input)
		}
		e.exact[v.ID] = labels
	}
	for _, v := range e.fx.versions {
		for prefix := 1; prefix <= 4; prefix++ {
			if _, err := mh.Repo.Weights(v.ID, dlv.LatestSnap, prefix); err != nil {
				return err
			}
			for _, layer := range v.NetDef.Nodes {
				if !layer.Parametric() {
					continue
				}
				if _, _, err := mh.Repo.WeightIntervals(v.ID, dlv.LatestSnap, layer.Name, prefix); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// setupLifecycle starts the hub server the lifecycle publishes to.
func setupLifecycle(e *env) error {
	srv, err := hub.NewServer(filepath.Join(e.scratch, "hub"))
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	e.hubURL = "http://" + ln.Addr().String()
	e.hubClose = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		if serr := <-done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
			err = serr
		}
		return err
	}
	return nil
}

// runner drives one workload's closed loop: one client, the next request
// only after the previous one completed.
type runner struct {
	e   *env
	w   *workload
	rng *rand.Rand
	// requests counts requests issued over the runner's life, across phases.
	requests int
	ops      map[string]*opStats
	// hist sums progressive PrefixHistograms; ratios holds the storage
	// ratio of every lifecycle re-archive.
	hist   [5]int
	ratios []float64
	// predicts remembers the predict requests of the phase for the probe.
	predicts []predictReq
	// traced says whether obs is on; checks then run with it off, so a
	// check's own reads never reach the spans or counters.
	traced bool
	errs   int
}

type predictReq struct {
	v   *dlv.Version
	idx []int
}

func newRunner(e *env, w *workload, seed int64) *runner {
	return &runner{e: e, w: w, rng: rand.New(rand.NewSource(seed*7919 + 17)), ops: map[string]*opStats{}}
}

func (r *runner) stat(op string) *opStats {
	s := r.ops[op]
	if s == nil {
		s = &opStats{}
		r.ops[op] = s
	}
	return s
}

// resetPhase starts a fresh set of op statistics.
func (r *runner) resetPhase() {
	r.ops = map[string]*opStats{}
	r.hist = [5]int{}
	r.ratios = nil
	r.predicts = nil
}

// phase issues requests until d has passed or maxRequests were issued
// (0 = no cap), and returns the number issued.
func (r *runner) phase(d time.Duration, maxRequests int) int {
	n := 0
	for start := time.Now(); time.Since(start) < d && (maxRequests == 0 || n < maxRequests); n++ {
		r.w.request(r)
		r.requests++
	}
	return n
}

// op times run as one op under a root span of its own, then runs check
// outside the timed region. Either failing counts the op as failed.
func (r *runner) op(name string, run func(ctx context.Context) error, check func() error) (time.Duration, error) {
	ctx, span := obs.Start(context.Background(), benchPrefix+"op."+name)
	t0 := time.Now()
	err := run(ctx)
	d := time.Since(t0)
	if err != nil {
		span.SetError()
	}
	span.End()
	if err == nil && check != nil {
		err = r.unobserved(check)
	}
	r.stat(name).record(d, err)
	if err != nil && r.errs < 10 {
		r.errs++
		fmt.Fprintf(os.Stderr, "lcbench: %s failed: %v\n", name, err)
	}
	return d, err
}

// unobserved runs fn with obs off when the run is traced.
func (r *runner) unobserved(fn func() error) error {
	if r.traced {
		obs.Disable()
		defer obs.Enable()
	}
	return fn()
}

func checkoutRequest(r *runner) {
	fx := r.e.fx
	var mh *core.ModelHub
	open := func(ctx context.Context) error {
		return call(ctx, "core.Open", func(context.Context) (err error) {
			mh, err = core.Open(fx.root)
			return err
		})
	}
	if r.requests%4 == 3 {
		q := r.e.queries[r.rng.Intn(len(r.e.queries))]
		var res *dql.Result
		r.op(opQuery, func(ctx context.Context) error {
			if err := open(ctx); err != nil {
				return err
			}
			return call(ctx, "ModelHub.Query", func(context.Context) (err error) {
				res, err = mh.Query(q.text)
				return err
			})
		}, func() error { return checkQuery(q.want, res) })
		return
	}
	v := fx.versions[r.rng.Intn(len(fx.versions))]
	snap := dlv.LatestSnap
	// Alternate latest and a checkpoint across checkouts.
	if ck := checkpoints(v); r.stat(opCheckout).attempted%2 == 1 && len(ck) > 0 {
		snap = ck[r.rng.Intn(len(ck))]
	}
	var got map[string]*tensor.Matrix
	r.op(opCheckout, func(ctx context.Context) error {
		if err := open(ctx); err != nil {
			return err
		}
		return call(ctx, "Repo.Weights", func(ctx context.Context) (err error) {
			got, err = mh.Repo.WeightsCtx(ctx, v.ID, snap, 4)
			return err
		})
	}, func() error { return checkWeights(fx.raw[snapKey{v.ID, snap}], got) })
}

// predictExamples returns a request's examples twice: labelled with the
// full-precision top-1 answer (progressive check) and with the true label
// (eval check), plus the accuracy set-up measured for the latter.
func (e *env) predictExamples(q predictReq) (relabelled, truth []dnn.Example, wantAcc float64) {
	exact := e.exact[q.v.ID]
	correct := 0
	for _, i := range q.idx {
		ex := e.pool[i]
		truth = append(truth, ex)
		relabelled = append(relabelled, dnn.Example{Input: ex.Input, Label: exact[i]})
		if exact[i] == ex.Label {
			correct++
		}
	}
	return relabelled, truth, float64(correct) / float64(len(q.idx))
}

func predictRequest(r *runner) {
	e := r.e
	q := predictReq{v: e.fx.versions[r.requests%len(e.fx.versions)], idx: make([]int, predictBatch)}
	for i := range q.idx {
		q.idx[i] = r.rng.Intn(len(e.pool))
	}
	r.predicts = append(r.predicts, q)
	relabelled, truth, wantAcc := e.predictExamples(q)
	var pres *dlv.ProgressiveEvalResult
	r.op(opPredict, func(ctx context.Context) error {
		return call(ctx, "Repo.EvalProgressiveTopK", func(context.Context) (err error) {
			pres, err = e.mh.Repo.EvalProgressiveTopK(q.v.ID, dlv.LatestSnap, relabelled, 1)
			return err
		})
	}, func() error {
		if err := checkProgressive(len(relabelled), pres); err != nil {
			return err
		}
		for p, c := range pres.PrefixHistogram {
			r.hist[p] += c
		}
		return nil
	})
	var eres *dlv.EvalResult
	r.op(opEval, func(ctx context.Context) error {
		return call(ctx, "Repo.Eval", func(context.Context) (err error) {
			eres, err = e.mh.Repo.Eval(q.v.ID, dlv.LatestSnap, truth, 4)
			return err
		})
	}, func() error { return checkEval(len(truth), wantAcc, eres) })
}

// lifecycleRequest restores the pristine archived repository (untimed),
// fine-tunes a new version from a random parent, re-archives, publishes and
// pulls it back, and checks the pulled version bit for bit.
func lifecycleRequest(r *runner) {
	e := r.e
	fx := e.fx
	dir := filepath.Join(e.scratch, fmt.Sprintf("lc-%d", r.requests))
	defer os.RemoveAll(dir)
	repoDir := filepath.Join(dir, "repo")
	it := r.stat(opIteration)
	if err := copyTree(fx.root, repoDir); err != nil {
		it.record(0, err)
		return
	}
	parent := fx.versions[r.rng.Intn(len(fx.versions))]
	opts := core.TrainOptions{
		Arch: "lenet", Epochs: 1, Examples: 200, Seed: r.rng.Int63(),
		ParentID: parent.ID, Msg: "lcbench fine-tune",
	}
	var (
		mh        *core.ModelHub
		id        int64
		committed map[string]map[string]*tensor.Matrix
		store     *pas.Store
		pulled    *core.ModelHub
		total     time.Duration
	)
	step := func(d time.Duration, err error) bool {
		total += d
		if err != nil {
			it.record(0, err)
			return false
		}
		return true
	}
	if !step(r.op(opTrainCommit, func(ctx context.Context) error {
		if err := call(ctx, "core.Open", func(context.Context) (err error) {
			mh, err = core.Open(repoDir)
			return err
		}); err != nil {
			return err
		}
		return call(ctx, "ModelHub.TrainAndCommit", func(context.Context) (err error) {
			id, err = mh.TrainAndCommit("lc-"+parent.Name, opts)
			return err
		})
	}, func() error {
		v, err := mh.Repo.Version(id)
		if err != nil {
			return err
		}
		if len(v.Snapshots) == 0 {
			return fmt.Errorf("version %d committed no snapshots", id)
		}
		committed = map[string]map[string]*tensor.Matrix{}
		for _, snap := range v.Snapshots {
			if committed[snap], err = mh.Repo.Weights(id, snap, 4); err != nil {
				return err
			}
		}
		return nil
	})) {
		return
	}
	if !step(r.op(opArchive, func(ctx context.Context) error {
		return call(ctx, "Repo.Archive", func(context.Context) (err error) {
			store, err = mh.Repo.Archive(archiveOpts)
			return err
		})
	}, func() error {
		raw := fx.rawBytes
		for _, w := range committed {
			raw += weightBytes(w)
		}
		r.ratios = append(r.ratios, ratio(float64(store.TotalChunkBytes(4)), float64(raw)))
		return nil
	})) {
		return
	}
	defer store.Close()
	const name = "lcbench-sd"
	if !step(r.op(opPublish, func(ctx context.Context) error {
		return call(ctx, "ModelHub.PublishWith", func(ctx context.Context) error {
			return mh.PublishWith(ctx, e.hubURL, name, hub.Options{})
		})
	}, nil)) {
		return
	}
	if !step(r.op(opPull, func(ctx context.Context) error {
		return call(ctx, "core.PullWith", func(ctx context.Context) (err error) {
			pulled, err = core.PullWith(ctx, e.hubURL, name, filepath.Join(dir, "pulled"), hub.Options{})
			return err
		})
	}, func() error {
		for snap, want := range committed {
			got, err := pulled.Repo.Weights(id, snap, 4)
			if err != nil {
				return err
			}
			if err := checkWeights(want, got); err != nil {
				return fmt.Errorf("pulled v%d/%s: %w", id, snap, err)
			}
		}
		return nil
	})) {
		return
	}
	it.record(total, nil)
}
