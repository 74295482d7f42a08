package pas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"modelhub/internal/delta"
	"modelhub/internal/floatenc"
	"modelhub/internal/tensor"
)

// MatrixRef names one archived matrix: the snapshot it belongs to and its
// layer name within the snapshot.
type MatrixRef struct {
	Snapshot string `json:"snapshot"`
	Name     string `json:"name"`
}

// SnapshotIn describes one snapshot to archive: its matrices and the
// recreation budget θ_i for retrieving them together (0 = unconstrained).
type SnapshotIn struct {
	ID       string
	Matrices map[string]*tensor.Matrix
	Budget   float64
}

// Options configure Create.
type Options struct {
	// Algorithm selects the plan optimizer: "pas-mt" (default), "pas-pt",
	// "mst", "spt", or "last".
	Algorithm string
	// Scheme is the retrieval scheme the budgets are evaluated under.
	Scheme Scheme
	// Alpha, when > 0, overrides all budgets with α·Cr(SPT, s_i) — the
	// Fig 6(c) protocol. When 0, the per-snapshot budgets are used as given.
	Alpha float64
	// DeltaOp is the delta operator for chunk chains. XOR (the default) is
	// the only operator that composes exactly per byte plane, which partial
	// (prefix < 4) retrieval requires.
	DeltaOp delta.Op
	// ZlibLevel for chunk compression; 0 means "unset" and defaults to 6
	// like the paper. Pass ExplicitZero (-1) to request actual zlib level 0
	// (stored, uncompressed deflate blocks).
	ZlibLevel int
	// ExtraPairs adds candidate delta edges beyond the default same-name
	// adjacent-snapshot pairs (e.g. across fine-tuned model versions).
	ExtraPairs [][2]MatrixRef
	// NoDefaultPairs disables the adjacent-snapshot pairing so the caller
	// (e.g. DLV, which knows version boundaries) controls candidates fully.
	NoDefaultPairs bool
	// LASTAlpha is the node-level balance parameter when Algorithm=="last";
	// 0 means "unset" and defaults to max(Alpha, 1). Pass ExplicitZero (-1)
	// to request an actual α=0 (which LAST clamps to its minimum of 1).
	LASTAlpha float64
	// PlaneGranularity makes storage-plan decisions at the level of byte
	// segments (paper Sec. IV-C: "PAS is able to make decisions at the
	// level of byte segments of float matrices, by treating them as
	// separate matrices that need to be retrieved together in some cases"):
	// every matrix splits into a high-plane node (planes 0-1) and a
	// low-plane node (planes 2-3) that pick delta parents independently —
	// compressible high planes ride delta chains while near-random low
	// planes can materialize for cheap recreation. Requires XOR deltas.
	PlaneGranularity bool
	// Remote, when non-nil, adds a second storage option per candidate edge
	// modelling a remote/cold tier: cheaper to keep, slower to read (paper
	// Sec. IV-C: "one edge corresponding to a remote storage option, where
	// the storage cost is lower and the recreation cost is higher"). The
	// optimizer picks the tier per delta; the tier is recorded per node in
	// the manifest.
	Remote *RemoteTier
}

// RemoteTier prices the remote storage option relative to local chunks.
type RemoteTier struct {
	// StorageFactor scales storage cost (< 1: remote bytes are cheaper,
	// e.g. 0.3 for cold object storage priced below local SSD).
	StorageFactor float64
	// RecreationFactor scales recreation cost (> 1: remote reads are
	// slower).
	RecreationFactor float64
}

// Storage tiers.
const (
	tierLocal  = 0
	tierRemote = 1
)

// ExplicitZero is the sentinel for Options fields whose zero value means
// "unset, use the default": pass it to request an actual 0 (e.g.
// Options.ZlibLevel = ExplicitZero selects zlib level 0, store-only).
const ExplicitZero = -1

func (o Options) withDefaults() Options {
	if o.Algorithm == "" {
		o.Algorithm = "pas-mt"
	}
	if o.DeltaOp == delta.None {
		o.DeltaOp = delta.XOR
	}
	switch o.ZlibLevel {
	case 0:
		o.ZlibLevel = floatenc.DefaultZlibLevel
	case ExplicitZero:
		o.ZlibLevel = 0
	}
	switch o.LASTAlpha {
	case 0:
		o.LASTAlpha = math.Max(o.Alpha, 1)
	case ExplicitZero:
		o.LASTAlpha = 0
	}
	return o
}

// manifest is the JSON description persisted alongside the chunks.
type manifest struct {
	Version   int            `json:"version"`
	DeltaOp   uint8          `json:"delta_op"`
	Scheme    int            `json:"scheme"`
	Algorithm string         `json:"algorithm"`
	Nodes     []manifestNode `json:"nodes"`
	Snapshots []manifestSnap `json:"snapshots"`
	// Costs of the chosen plan, for reporting.
	StorageCost float64 `json:"storage_cost"`
	MSTCost     float64 `json:"mst_cost"`
	SPTCost     float64 `json:"spt_cost"`
	Feasible    bool    `json:"feasible"`
}

type manifestNode struct {
	ID     int       `json:"id"` // NodeID (>= 1)
	Ref    MatrixRef `json:"ref"`
	Rows   int       `json:"rows"`
	Cols   int       `json:"cols"`
	Parent int       `json:"parent"`         // NodeID; 0 = materialized from ν0
	Tier   int       `json:"tier,omitempty"` // 0 = local, 1 = remote
	// PlaneStart/PlaneEnd bound the byte planes this node stores
	// (PlaneEnd == 0 means the full range [0, 4) for compatibility).
	PlaneStart int       `json:"plane_start,omitempty"`
	PlaneEnd   int       `json:"plane_end,omitempty"`
	PlaneSum   [4]string `json:"plane_sha256"`
	// PlaneBytes records the compressed size of each plane (reporting and
	// partial-retrieval cost accounting).
	PlaneBytes [4]int `json:"plane_bytes"`
}

type manifestSnap struct {
	ID     string   `json:"id"`
	Names  []string `json:"names"`
	Budget float64  `json:"budget"`
	// Recreation is the plan's achieved group recreation cost under the
	// archive's retrieval scheme (0 budget = unconstrained).
	Recreation float64 `json:"recreation"`
}

// planeKey identifies the decoded byte planes of one node resolved at one
// prefix. Caching planes by node id alone is wrong: a retrieval at prefix 2
// produces zero-filled planes 2-3, which must never satisfy a later lookup
// at prefix 4.
type planeKey struct {
	id     int
	prefix int
}

// Store is an opened parameter archive.
type Store struct {
	dir string
	man manifest

	// seg serves chunk payloads out of the archive's segment files.
	seg segReader

	mu        sync.Mutex
	cache     map[planeKey]*[4][]byte // (node, prefix) -> byte planes (reusable scheme)
	fullCache map[int]*tensor.Matrix  // node -> exact matrix (reusable scheme)
	// byRef maps a matrix to its node ids; plane-granular archives have one
	// node per plane segment, tiling [0, 4).
	byRef map[MatrixRef][]int

	// eng is the concurrent retrieval engine (worker pool, single-flight
	// deduplication, bounded plane LRU) behind the Concurrent scheme.
	eng *engine
}

// ErrStore reports archive-level failures (corruption, missing chunks,
// unknown references).
var ErrStore = errors.New("pas: store error")

// ErrCycle reports a manifest whose parent pointers form a cycle; it wraps
// ErrStore, so errors.Is(err, ErrStore) also matches.
var ErrCycle = fmt.Errorf("%w: parent cycle", ErrStore)

// candidates is the output of graph construction: the storage graph plus
// the delta payload and tier of every candidate edge.
type candidates struct {
	g        *Graph
	payloads map[EdgeID]*tensor.Matrix
	tiers    map[EdgeID]int
	byRef    map[MatrixRef][]int
	// refs[id] is the matrix reference of node id (index 0 unused);
	// planeRange[id] bounds the byte planes the node covers.
	refs       []MatrixRef
	planeRange [][2]int
}

// buildCandidates measures every candidate edge of the matrix storage graph
// for the given snapshots: materialization edges from \u03bd0, same-name deltas
// between consecutive snapshots (unless disabled), explicit extra pairs, and
// remote-tier variants. Costs are real compressed byte counts.
func buildCandidates(snaps []SnapshotIn, opts Options) (*candidates, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("%w: no snapshots", ErrStore)
	}
	if opts.DeltaOp != delta.XOR && opts.DeltaOp != delta.IntSub {
		return nil, fmt.Errorf("%w: delta op %v is not exactly invertible", ErrStore, opts.DeltaOp)
	}
	if opts.PlaneGranularity && opts.DeltaOp != delta.XOR {
		return nil, fmt.Errorf("%w: plane granularity requires XOR deltas", ErrStore)
	}

	// Each matrix becomes one node (full plane range) or, under plane
	// granularity, one node per plane segment. Parts tile [0, NumPlanes).
	parts := [][2]int{{0, floatenc.NumPlanes}}
	if opts.PlaneGranularity {
		parts = [][2]int{{0, 2}, {2, floatenc.NumPlanes}}
	}

	// Assign node ids in deterministic order.
	type nodeInfo struct {
		ref  MatrixRef
		m    *tensor.Matrix
		part [2]int
	}
	var nodes []nodeInfo // index 0 unused (\u03bd0)
	nodes = append(nodes, nodeInfo{})
	byRef := make(map[MatrixRef][]int)
	matrixOf := make(map[MatrixRef]*tensor.Matrix)
	for _, s := range snaps {
		for _, name := range sortedKeys(s.Matrices) {
			ref := MatrixRef{Snapshot: s.ID, Name: name}
			if _, dup := byRef[ref]; dup {
				return nil, fmt.Errorf("%w: duplicate matrix %v", ErrStore, ref)
			}
			matrixOf[ref] = s.Matrices[name]
			for _, part := range parts {
				byRef[ref] = append(byRef[ref], len(nodes))
				nodes = append(nodes, nodeInfo{ref: ref, m: s.Matrices[name], part: part})
			}
		}
	}

	g := NewGraph(len(nodes) - 1)
	// Candidate edge payloads, keyed by edge id, so the chosen plan can
	// write chunks without recomputing deltas. Edge tiers record which
	// storage option (local or remote) an edge models. Costs measure only
	// the planes the target node covers.
	payloads := make(map[EdgeID]*tensor.Matrix)
	tiers := make(map[EdgeID]int)
	addEdge := func(from, to int, body *tensor.Matrix) error {
		part := nodes[to].part
		fp, err := measurePlanes(body, opts.ZlibLevel, part[0], part[1])
		if err != nil {
			return err
		}
		cost := float64(fp)
		eid := g.AddEdge(NodeID(from), NodeID(to), cost, cost)
		payloads[eid] = body
		tiers[eid] = tierLocal
		if opts.Remote != nil {
			rid := g.AddEdge(NodeID(from), NodeID(to),
				cost*opts.Remote.StorageFactor, cost*opts.Remote.RecreationFactor)
			payloads[rid] = body
			tiers[rid] = tierRemote
		}
		return nil
	}
	// Materialization edges \u03bd0 -> m (one per part node).
	for id := 1; id < len(nodes); id++ {
		d, err := delta.Compute(opts.DeltaOp, nil, nodes[id].m)
		if err != nil {
			return nil, err
		}
		if err := addEdge(0, id, d.Body); err != nil {
			return nil, err
		}
	}
	// Default delta candidates: same-name matrices in consecutive snapshots.
	// Shared names are sorted before pairing: pair order decides delta-edge
	// insertion order, which must not replay map iteration order.
	var pairs [][2]MatrixRef
	for i := 1; i < len(snaps) && !opts.NoDefaultPairs; i++ {
		prev, cur := snaps[i-1], snaps[i]
		var shared []string
		for name := range cur.Matrices {
			if _, ok := prev.Matrices[name]; ok {
				shared = append(shared, name)
			}
		}
		sort.Strings(shared)
		for _, name := range shared {
			pairs = append(pairs, [2]MatrixRef{
				{Snapshot: prev.ID, Name: name},
				{Snapshot: cur.ID, Name: name},
			})
		}
	}
	pairs = append(pairs, opts.ExtraPairs...)
	for _, p := range pairs {
		aids, okA := byRef[p[0]]
		bids, okB := byRef[p[1]]
		if !okA || !okB {
			return nil, fmt.Errorf("%w: delta pair references unknown matrix %v / %v", ErrStore, p[0], p[1])
		}
		dAB, err := delta.Compute(opts.DeltaOp, matrixOf[p[0]], matrixOf[p[1]])
		if err != nil {
			return nil, err
		}
		dBA, err := delta.Compute(opts.DeltaOp, matrixOf[p[1]], matrixOf[p[0]])
		if err != nil {
			return nil, err
		}
		// Deltas connect same-part nodes only (parts are stored and
		// recreated independently).
		for pi := range aids {
			if err := addEdge(aids[pi], bids[pi], dAB.Body); err != nil {
				return nil, err
			}
			if err := addEdge(bids[pi], aids[pi], dBA.Body); err != nil {
				return nil, err
			}
		}
	}
	// Snapshot groups: all part nodes of the snapshot's matrices are
	// co-retrieved.
	for _, s := range snaps {
		var ids []NodeID
		for _, name := range sortedKeys(s.Matrices) {
			for _, id := range byRef[MatrixRef{Snapshot: s.ID, Name: name}] {
				ids = append(ids, NodeID(id))
			}
		}
		g.AddSnapshot(s.ID, ids, s.Budget)
	}
	refs := make([]MatrixRef, len(nodes))
	planeRange := make([][2]int, len(nodes))
	for id := 1; id < len(nodes); id++ {
		refs[id] = nodes[id].ref
		planeRange[id] = nodes[id].part
	}
	return &candidates{g: g, payloads: payloads, tiers: tiers, byRef: byRef,
		refs: refs, planeRange: planeRange}, nil
}

// BuildGraph constructs and measures the matrix storage graph for the given
// snapshots without writing an archive — for plan analysis and the Fig 6(c)
// experiments on real (measured) delta costs.
func BuildGraph(snaps []SnapshotIn, opts Options) (*Graph, error) {
	opts = opts.withDefaults()
	cand, err := buildCandidates(snaps, opts)
	if err != nil {
		return nil, err
	}
	return cand.g, nil
}

// Create archives the snapshots into dir using the configured plan
// optimizer and returns the opened store.
func Create(dir string, snaps []SnapshotIn, opts Options) (*Store, error) {
	opts = opts.withDefaults()
	cand, err := buildCandidates(snaps, opts)
	if err != nil {
		return nil, err
	}
	g, payloads, tiers := cand.g, cand.payloads, cand.tiers
	if opts.Alpha > 0 {
		if _, err := SetBudgetsAlphaSPT(g, opts.Scheme, opts.Alpha); err != nil {
			return nil, err
		}
	}

	plan, feasible, err := solve(g, opts)
	if err != nil {
		return nil, err
	}
	mst, err := MST(g)
	if err != nil {
		return nil, err
	}
	spt, err := SPT(g)
	if err != nil {
		return nil, err
	}

	// Deflate the chosen plan's chunk payloads and build the manifest.
	man := manifest{
		Version:     2,
		DeltaOp:     uint8(opts.DeltaOp),
		Scheme:      int(opts.Scheme),
		Algorithm:   opts.Algorithm,
		StorageCost: plan.StorageCost(),
		MSTCost:     mst.StorageCost(),
		SPTCost:     spt.StorageCost(),
		Feasible:    feasible,
	}
	var chunks []segPayload
	for id := 1; id < len(cand.refs); id++ {
		eid := plan.ParentEdge[id]
		body := payloads[eid]
		seg := floatenc.Segment(body)
		part := cand.planeRange[id]
		mn := manifestNode{
			ID:         id,
			Ref:        cand.refs[id],
			Rows:       body.Rows(),
			Cols:       body.Cols(),
			Parent:     int(plan.Parent(NodeID(id))),
			Tier:       tiers[eid],
			PlaneStart: part[0],
			PlaneEnd:   part[1],
		}
		for p := part[0]; p < part[1]; p++ {
			z, err := floatenc.Deflate(seg.Planes[p], opts.ZlibLevel)
			if err != nil {
				return nil, err
			}
			sum := sha256.Sum256(z)
			mn.PlaneSum[p] = hex.EncodeToString(sum[:])
			mn.PlaneBytes[p] = len(z)
			chunks = append(chunks, segPayload{sum: mn.PlaneSum[p], data: z})
		}
		man.Nodes = append(man.Nodes, mn)
	}
	for si, s := range snaps {
		man.Snapshots = append(man.Snapshots, manifestSnap{
			ID:         s.ID,
			Names:      sortedKeys(s.Matrices),
			Budget:     g.Snapshots[si].Budget,
			Recreation: plan.SnapshotCost(si, opts.Scheme),
		})
	}

	// Re-archiving appends only payloads the index has never seen; the
	// displaced older ones become garbage for the next GC.
	if _, err := appendSegments(dir, chunks); err != nil {
		return nil, err
	}
	if err := writeManifest(dir, &man); err != nil {
		return nil, err
	}
	// Open sweeps the per-chunk directories of a Version-1 archive this
	// call replaced (reconcileSegmentDir). That runs only after the manifest
	// commit above, so a Create that fails earlier leaves the old archive
	// readable.
	return Open(dir)
}

// writeManifest persists the manifest atomically (temp + fsync + rename +
// parent dir fsync) — the commit point of Create and of legacy migration.
func writeManifest(dir string, man *manifest) error {
	blob, err := json.MarshalIndent(man, "", " ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(filepath.Join(dir, "manifest.json"), blob); err != nil {
		return fmt.Errorf("%w: writing manifest: %v", ErrStore, err)
	}
	return nil
}

func solve(g *Graph, opts Options) (*Plan, bool, error) {
	switch opts.Algorithm {
	case "pas-mt":
		return PASMT(g, opts.Scheme)
	case "pas-pt":
		return PASPT(g, opts.Scheme)
	case "mst":
		p, err := MST(g)
		if err != nil {
			return nil, false, err
		}
		ok, _ := p.Feasible(opts.Scheme)
		return p, ok, nil
	case "spt":
		p, err := SPT(g)
		if err != nil {
			return nil, false, err
		}
		ok, _ := p.Feasible(opts.Scheme)
		return p, ok, nil
	case "last":
		p, err := LAST(g, opts.LASTAlpha)
		if err != nil {
			return nil, false, err
		}
		ok, _ := p.Feasible(opts.Scheme)
		return p, ok, nil
	case "best":
		// Run both PAS algorithms and keep the cheaper feasible plan — the
		// paper's closing recommendation for Fig 6(c).
		mt, okMT, err := PASMT(g, opts.Scheme)
		if err != nil {
			return nil, false, err
		}
		pt, okPT, err := PASPT(g, opts.Scheme)
		if err != nil {
			return nil, false, err
		}
		switch {
		case okMT && okPT:
			if pt.StorageCost() < mt.StorageCost() {
				return pt, true, nil
			}
			return mt, true, nil
		case okPT:
			return pt, true, nil
		default:
			return mt, okMT, nil
		}
	default:
		return nil, false, fmt.Errorf("%w: unknown algorithm %q", ErrStore, opts.Algorithm)
	}
}

// Open loads an existing archive. A Version-1 archive (one file per chunk
// under chunks/ and remote/) migrates in place to the segment layout, once.
func Open(dir string) (*Store, error) {
	blob, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	man, err := parseManifest(blob)
	if err != nil {
		return nil, err
	}
	if man.Version == 1 {
		if err := migrateLegacy(dir, man); err != nil {
			return nil, err
		}
	} else {
		reconcileSegmentDir(dir)
	}
	idx, err := loadSegIndex(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{dir: dir, man: *man,
		cache:     make(map[planeKey]*[4][]byte),
		fullCache: make(map[int]*tensor.Matrix),
		byRef:     make(map[MatrixRef][]int),
		eng:       newEngine()}
	s.seg.dir, s.seg.idx = dir, idx
	s.seg.files = make(map[string]*os.File)
	for _, n := range man.Nodes {
		s.byRef[n.Ref] = append(s.byRef[n.Ref], n.ID)
	}
	noteSegmentGauges(idx)
	return s, nil
}

// parseManifest decodes and validates a manifest blob: a supported version,
// and node fields that retrieval, migration and GC can index with without
// panicking. Ids are unique and >= 1, the stored plane range lies within
// [0, 4), shapes are non-negative, the tier is local or remote, and every
// parent is 0 (materialized) or a known node. Bad input yields ErrStore.
func parseManifest(blob []byte) (*manifest, error) {
	var man manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", ErrStore, err)
	}
	if man.Version != 1 && man.Version != 2 {
		return nil, fmt.Errorf("%w: unsupported manifest version %d", ErrStore, man.Version)
	}
	ids := make(map[int]bool, len(man.Nodes))
	for _, n := range man.Nodes {
		if n.ID < 1 || ids[n.ID] {
			return nil, fmt.Errorf("%w: manifest: bad or duplicate node id %d", ErrStore, n.ID)
		}
		ids[n.ID] = true
	}
	for i := range man.Nodes {
		n := &man.Nodes[i]
		start, end := nodePlanes(n)
		switch {
		case n.PlaneEnd == 0 && n.PlaneStart != 0,
			start < 0 || start >= end || end > floatenc.NumPlanes:
			return nil, fmt.Errorf("%w: manifest: node %d plane range [%d, %d)", ErrStore, n.ID, n.PlaneStart, n.PlaneEnd)
		case n.Rows < 0 || n.Cols < 0:
			return nil, fmt.Errorf("%w: manifest: node %d shape %dx%d", ErrStore, n.ID, n.Rows, n.Cols)
		case n.Tier != tierLocal && n.Tier != tierRemote:
			return nil, fmt.Errorf("%w: manifest: node %d tier %d", ErrStore, n.ID, n.Tier)
		case n.Parent != 0 && !ids[n.Parent]:
			return nil, fmt.Errorf("%w: manifest: node %d parent %d unknown", ErrStore, n.ID, n.Parent)
		}
	}
	return &man, nil
}

// chunkPath names a Version-1 archive's per-chunk payload file; only the
// one-shot migration reads these.
func chunkPath(dir string, node, plane, tier int) string {
	sub := "chunks"
	if tier == tierRemote {
		sub = "remote"
	}
	return filepath.Join(dir, sub, fmt.Sprintf("n%06d.p%d", node, plane))
}

// Snapshots lists the archived snapshot ids in archive order.
func (s *Store) Snapshots() []string {
	out := make([]string, len(s.man.Snapshots))
	for i, snap := range s.man.Snapshots {
		out[i] = snap.ID
	}
	return out
}

// MatrixNames lists the matrix names of a snapshot.
func (s *Store) MatrixNames(snapshot string) ([]string, error) {
	for _, snap := range s.man.Snapshots {
		if snap.ID == snapshot {
			return append([]string(nil), snap.Names...), nil
		}
	}
	return nil, fmt.Errorf("%w: unknown snapshot %q", ErrStore, snapshot)
}

// PlanInfo reports the costs of the plan this store was created with.
type PlanInfo struct {
	Algorithm   string
	StorageCost float64
	MSTCost     float64
	SPTCost     float64
	Feasible    bool
}

// Info returns the stored plan's summary.
func (s *Store) Info() PlanInfo {
	return PlanInfo{
		Algorithm:   s.man.Algorithm,
		StorageCost: s.man.StorageCost,
		MSTCost:     s.man.MSTCost,
		SPTCost:     s.man.SPTCost,
		Feasible:    s.man.Feasible,
	}
}

// node returns the manifest node for id.
func (s *Store) node(id int) (*manifestNode, error) {
	// Nodes are appended in id order starting at 1.
	idx := id - 1
	if idx < 0 || idx >= len(s.man.Nodes) || s.man.Nodes[idx].ID != id {
		for i := range s.man.Nodes {
			if s.man.Nodes[i].ID == id {
				return &s.man.Nodes[i], nil
			}
		}
		return nil, fmt.Errorf("%w: unknown node %d", ErrStore, id)
	}
	return &s.man.Nodes[idx], nil
}

// nodePlanes returns the byte-plane range a node stores; PlaneEnd == 0
// denotes the legacy full range.
func nodePlanes(n *manifestNode) (int, int) {
	if n.PlaneEnd == 0 {
		return 0, floatenc.NumPlanes
	}
	return n.PlaneStart, n.PlaneEnd
}

// readPlane loads, verifies and inflates one stored byte plane of a node.
func (s *Store) readPlane(n *manifestNode, p int) ([]byte, error) {
	z, err := s.seg.read(n.PlaneSum[p])
	if err != nil {
		return nil, fmt.Errorf("%w: reading chunk for node %d plane %d: %v", ErrStore, n.ID, p, err)
	}
	sum := sha256.Sum256(z)
	if hex.EncodeToString(sum[:]) != n.PlaneSum[p] {
		return nil, fmt.Errorf("%w: chunk checksum mismatch for node %d plane %d", ErrStore, n.ID, p)
	}
	raw, err := floatenc.Inflate(z)
	if err != nil {
		return nil, fmt.Errorf("%w: node %d plane %d: %v", ErrStore, n.ID, p, err)
	}
	if size := n.Rows * n.Cols; len(raw) != size {
		return nil, fmt.Errorf("%w: node %d plane %d has %d bytes, want %d", ErrStore, n.ID, p, len(raw), size)
	}
	mChunkReads.Inc()
	mChunkReadBytes.Add(int64(len(z)))
	return raw, nil
}

// readPlanes loads and verifies the byte planes of a node's chunk that fall
// inside both the node's stored range and the first `prefix` planes,
// zero-filling the rest.
func (s *Store) readPlanes(n *manifestNode, prefix int) (*[4][]byte, error) {
	var planes [4][]byte
	size := n.Rows * n.Cols
	start, end := nodePlanes(n)
	countAvoidedPlanes(n, prefix)
	for p := 0; p < floatenc.NumPlanes; p++ {
		if p >= prefix || p < start || p >= end {
			planes[p] = make([]byte, size)
			continue
		}
		raw, err := s.readPlane(n, p)
		if err != nil {
			return nil, err
		}
		planes[p] = raw
	}
	return &planes, nil
}

// chainOf returns the delta chain of node id, leaf first, ending at the
// node materialized from ν0. The walk is iterative — thousand-checkpoint
// chains must not grow the stack — and returns ErrCycle when the manifest's
// parent pointers loop.
func (s *Store) chainOf(id int) ([]int, error) {
	var chain []int
	for cur := id; cur != 0; {
		n, err := s.node(cur)
		if err != nil {
			return nil, err
		}
		chain = append(chain, cur)
		if len(chain) > len(s.man.Nodes) {
			return nil, fmt.Errorf("%w through node %d", ErrCycle, id)
		}
		cur = n.Parent
	}
	return chain, nil
}

// resolveFull reconstructs the exact full-precision matrix of node id by
// reading all four planes of each delta chunk along the chain and applying
// the archive's delta operator. This is the path for any exactly invertible
// operator (XOR or IntSub). useCache enables the reusable retrieval scheme.
func (s *Store) resolveFull(id int, useCache bool) (*tensor.Matrix, error) {
	chain, err := s.chainOf(id)
	if err != nil {
		return nil, err
	}
	var base *tensor.Matrix
	for i := len(chain) - 1; i >= 0; i-- {
		nid := chain[i]
		if useCache {
			s.mu.Lock()
			m, ok := s.fullCache[nid]
			s.mu.Unlock()
			if ok {
				base = m
				continue
			}
		}
		n, err := s.node(nid)
		if err != nil {
			return nil, err
		}
		planes, err := s.readPlanes(n, floatenc.NumPlanes)
		if err != nil {
			return nil, err
		}
		body, err := segmentedOf(n, planes).Reconstruct()
		if err != nil {
			return nil, err
		}
		d := &delta.Delta{Op: delta.Op(s.man.DeltaOp), Rows: n.Rows, Cols: n.Cols, Body: body}
		out, err := d.Apply(base)
		if err != nil {
			return nil, err
		}
		if useCache {
			s.mu.Lock()
			s.fullCache[nid] = out
			s.mu.Unlock()
		}
		base = out
	}
	return base, nil
}

// resolvePlanes computes the exact first `prefix` byte planes of node id's
// *matrix* (not its delta) by walking the delta chain from ν0, leaf-ward
// from the root-most node. XOR deltas compose per byte, so a prefix of
// planes is exact even without the low-order chunks; other operators must
// use resolveFull. useCache enables the reusable retrieval scheme, whose
// cache is keyed by (node, prefix) — a prefix-2 result must never satisfy a
// prefix-4 lookup.
func (s *Store) resolvePlanes(id, prefix int, useCache bool) (*[4][]byte, error) {
	if s.man.DeltaOp != uint8(delta.XOR) {
		return nil, fmt.Errorf("%w: partial retrieval requires XOR deltas", ErrStore)
	}
	chain, err := s.chainOf(id)
	if err != nil {
		return nil, err
	}
	var parent *[4][]byte
	var pn *manifestNode
	for i := len(chain) - 1; i >= 0; i-- {
		nid := chain[i]
		n, err := s.node(nid)
		if err != nil {
			return nil, err
		}
		if useCache {
			s.mu.Lock()
			c, ok := s.cache[planeKey{nid, prefix}]
			s.mu.Unlock()
			if ok {
				parent, pn = c, n
				continue
			}
		}
		planes, err := s.readPlanes(n, prefix)
		if err != nil {
			return nil, err
		}
		if n.Parent != 0 {
			// The delta body has the child's shape; XOR against the parent
			// resized to that shape (delta.ResizeTo semantics, per plane),
			// only over the planes this node actually stores.
			start, end := nodePlanes(n)
			for p := start; p < end && p < prefix; p++ {
				xorResized(planes[p], parent[p], n.Rows, n.Cols, pn.Rows, pn.Cols)
			}
		}
		if useCache {
			s.mu.Lock()
			s.cache[planeKey{nid, prefix}] = planes
			s.mu.Unlock()
		}
		parent, pn = planes, n
	}
	return parent, nil
}

// xorResized XORs the parent's plane (pr x pc) into dst (r x c), cropping or
// zero-padding the parent exactly like delta.ResizeTo does on floats.
func xorResized(dst, parent []byte, r, c, pr, pc int) {
	cr := r
	if pr < cr {
		cr = pr
	}
	cc := c
	if pc < cc {
		cc = pc
	}
	for i := 0; i < cr; i++ {
		drow := dst[i*c : i*c+cc]
		prow := parent[i*pc : i*pc+cc]
		for j := range drow {
			drow[j] ^= prow[j]
		}
	}
}

// segmented assembles a floatenc.Segmented view of a node's planes.
func segmentedOf(n *manifestNode, planes *[4][]byte) *floatenc.Segmented {
	seg := &floatenc.Segmented{Rows: n.Rows, Cols: n.Cols}
	seg.Planes = *planes
	return seg
}

// resolveRef assembles the first `prefix` byte planes of a matrix from all
// of its part nodes (one full-range node, or high/low segment nodes under
// plane granularity), each following its own delta chain.
func (s *Store) resolveRef(ref MatrixRef, prefix int, useCache bool) (*[4][]byte, int, int, error) {
	return s.resolveRefWith(ref, prefix, func(id, prefix int) (*[4][]byte, error) {
		return s.resolvePlanes(id, prefix, useCache)
	})
}

// resolveRefWith is resolveRef with a pluggable per-node chain resolver (the
// sequential resolvePlanes, or the concurrent engine's).
func (s *Store) resolveRefWith(ref MatrixRef, prefix int, resolve func(id, prefix int) (*[4][]byte, error)) (*[4][]byte, int, int, error) {
	ids, ok := s.byRef[ref]
	if !ok {
		return nil, 0, 0, fmt.Errorf("%w: unknown matrix %v", ErrStore, ref)
	}
	first, err := s.node(ids[0])
	if err != nil {
		return nil, 0, 0, err
	}
	rows, cols := first.Rows, first.Cols
	var out [4][]byte
	size := rows * cols
	for p := 0; p < floatenc.NumPlanes; p++ {
		out[p] = make([]byte, size)
	}
	for _, id := range ids {
		n, err := s.node(id)
		if err != nil {
			return nil, 0, 0, err
		}
		start, end := nodePlanes(n)
		if start >= prefix {
			continue // nothing to read from this segment
		}
		if n.Rows != rows || n.Cols != cols {
			return nil, 0, 0, fmt.Errorf("%w: part nodes of %v disagree on shape", ErrStore, ref)
		}
		planes, err := resolve(id, prefix)
		if err != nil {
			return nil, 0, 0, err
		}
		for p := start; p < end && p < prefix; p++ {
			out[p] = planes[p]
		}
	}
	return &out, rows, cols, nil
}

// getMatrixRef resolves one matrix at the given prefix, optionally caching
// intermediate chain results (the reusable scheme).
func (s *Store) getMatrixRef(ref MatrixRef, prefix int, useCache bool) (*tensor.Matrix, error) {
	if s.man.DeltaOp != uint8(delta.XOR) {
		// IntSub archives are matrix-granular and full-precision only.
		ids, ok := s.byRef[ref]
		if !ok {
			return nil, fmt.Errorf("%w: unknown matrix %v", ErrStore, ref)
		}
		if prefix < floatenc.NumPlanes {
			return nil, fmt.Errorf("%w: partial retrieval requires XOR deltas", ErrStore)
		}
		return s.resolveFull(ids[0], useCache)
	}
	planes, rows, cols, err := s.resolveRef(ref, prefix, useCache)
	if err != nil {
		return nil, err
	}
	seg := &floatenc.Segmented{Rows: rows, Cols: cols, Planes: *planes}
	if prefix >= floatenc.NumPlanes {
		return seg.Reconstruct()
	}
	return seg.Truncated(prefix)
}

// GetMatrix retrieves one matrix. With prefix = 4 the result is bit-exact;
// with a smaller prefix the low-order bytes are zero (the interval lower
// reconstruction), which requires XOR deltas.
func (s *Store) GetMatrix(ref MatrixRef, prefix int) (*tensor.Matrix, error) {
	return s.getMatrixRef(ref, prefix, false)
}

// GetIntervals retrieves the guaranteed value intervals for one matrix from
// a prefix of byte planes — the input to progressive query evaluation. At
// prefix 4 the intervals are degenerate (lo == hi == exact value).
func (s *Store) GetIntervals(ref MatrixRef, prefix int) (lo, hi *tensor.Matrix, err error) {
	if s.man.DeltaOp != uint8(delta.XOR) {
		m, err := s.getMatrixRef(ref, floatenc.NumPlanes, false)
		if err != nil {
			return nil, nil, err
		}
		return m, m.Clone(), nil
	}
	planes, rows, cols, err := s.resolveRef(ref, prefix, false)
	if err != nil {
		return nil, nil, err
	}
	seg := &floatenc.Segmented{Rows: rows, Cols: cols, Planes: *planes}
	return seg.Intervals(prefix)
}

// GetSnapshot retrieves all matrices of a snapshot under the given retrieval
// scheme (paper Table III): Independent walks each chain sequentially,
// Parallel uses one goroutine per matrix, Reusable caches shared chain
// prefixes across matrices, and Concurrent schedules chain resolution over a
// worker pool with single-flight deduplication and a persistent plane LRU.
func (s *Store) GetSnapshot(snapshot string, prefix int, scheme Scheme) (map[string]*tensor.Matrix, error) {
	countRetrieval(scheme)
	defer mRetrievalSeconds.Time()()
	names, err := s.MatrixNames(snapshot)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*tensor.Matrix, len(names))
	switch scheme {
	case Concurrent:
		return s.getSnapshotConcurrent(snapshot, names, prefix)
	case Parallel:
		var wg sync.WaitGroup
		var mu sync.Mutex
		errs := make([]error, len(names))
		for i, name := range names {
			wg.Add(1)
			go func(i int, name string) {
				defer wg.Done()
				m, err := s.GetMatrix(MatrixRef{Snapshot: snapshot, Name: name}, prefix)
				if err != nil {
					errs[i] = err
					return
				}
				mu.Lock()
				out[name] = m
				mu.Unlock()
			}(i, name)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	case Reusable:
		for _, name := range names {
			m, err := s.getMatrixRef(MatrixRef{Snapshot: snapshot, Name: name}, prefix, true)
			if err != nil {
				return nil, err
			}
			out[name] = m
		}
	default: // Independent
		for _, name := range names {
			m, err := s.GetMatrix(MatrixRef{Snapshot: snapshot, Name: name}, prefix)
			if err != nil {
				return nil, err
			}
			out[name] = m
		}
	}
	return out, nil
}

// SnapshotCostInfo explains one snapshot group's recreation cost under the
// archived plan (dlv archive -explain).
type SnapshotCostInfo struct {
	ID         string
	Matrices   int
	Budget     float64 // 0 = unconstrained
	Recreation float64
}

// SnapshotCosts reports the per-snapshot recreation costs the plan achieved
// against their budgets.
func (s *Store) SnapshotCosts() []SnapshotCostInfo {
	out := make([]SnapshotCostInfo, len(s.man.Snapshots))
	for i, snap := range s.man.Snapshots {
		out[i] = SnapshotCostInfo{
			ID:         snap.ID,
			Matrices:   len(snap.Names),
			Budget:     snap.Budget,
			Recreation: snap.Recreation,
		}
	}
	return out
}

// TotalChunkBytes sums the compressed on-disk chunk sizes, optionally only
// the first `prefix` planes (what a partial retrieval has to read).
func (s *Store) TotalChunkBytes(prefix int) int64 {
	var total int64
	for _, n := range s.man.Nodes {
		for p := 0; p < prefix && p < floatenc.NumPlanes; p++ {
			total += int64(n.PlaneBytes[p])
		}
	}
	return total
}

// TierChunkBytes sums the compressed chunk sizes of one storage tier
// (tier 0 = local, 1 = remote), across all planes.
func (s *Store) TierChunkBytes(tier int) int64 {
	var total int64
	for _, n := range s.man.Nodes {
		if n.Tier != tier {
			continue
		}
		for p := 0; p < floatenc.NumPlanes; p++ {
			total += int64(n.PlaneBytes[p])
		}
	}
	return total
}

// measureBytewise returns the summed per-plane compressed size of a matrix
// body — the storage cost model used for plan optimization.
func measureBytewise(m *tensor.Matrix, level int) (int, error) {
	return measurePlanes(m, level, 0, floatenc.NumPlanes)
}

// measurePlanes measures the compressed size of a plane subrange.
func measurePlanes(m *tensor.Matrix, level, start, end int) (int, error) {
	seg := floatenc.Segment(m)
	total := 0
	for p := start; p < end; p++ {
		z, err := floatenc.Deflate(seg.Planes[p], level)
		if err != nil {
			return 0, err
		}
		total += len(z)
	}
	return total, nil
}

func sortedKeys(m map[string]*tensor.Matrix) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
