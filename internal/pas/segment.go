package pas

// The archive's storage layout (manifest Version 2): segment files.
//
// Compressed chunk payloads are packed into a small number of append-only
// segment files under <dir>/segments/, and payloads are content-addressed by
// the SHA-256 the manifest already records per plane: identical payloads —
// frozen layers, repeated deltas, re-archived snapshots — are stored once. A
// segment file is immutable once written:
//
//	segments/seg-000000.seg:  "PASSEG2\n" | record | record | ...
//	record:                   len uint32be | sha256 [32]byte | payload
//
// segments/index.json maps payload SHA-256 → (segment, offset, length). The
// manifest defines WHAT the archive contains (liveness); the index defines
// WHERE payloads live — so GC and repack rewrite segments and flip the index
// without ever touching the manifest.
//
// Version-1 archives (one file per (node, plane, tier) chunk under chunks/
// and remote/) are read only by the one-shot migration on Open.
//
// Commit orders (each step durable via temp-file + fsync + rename + parent
// dir fsync):
//
//	Create/migrate: write segment files → write index → write manifest
//	                (the commit point) → unlink Version-1 chunk dirs
//	GC/repack:      write replacement segments → flip index (the commit
//	                point) → unlink victim segments
//
// A crash at any step leaves a readable archive: either the old manifest
// still names the old layout, or the new index still resolves every live
// payload. Concurrent readers inside one process survive GC because the
// reader keeps displaced file handles open in a graveyard until Close —
// an in-flight ReadAt on an unlinked segment still returns the bytes its
// index snapshot promised.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"modelhub/internal/obs"
)

const (
	segmentsDir  = "segments"
	segIndexName = "index.json"
	segMagic     = "PASSEG2\n"
	segTmpPrefix = ".tmp-"
	// segRecordOverhead is the per-record header: a 4-byte big-endian
	// payload length plus the raw 32-byte SHA-256 of the payload.
	segRecordOverhead = 4 + sha256.Size
	// segTargetBytes caps one segment file; larger archives roll over into
	// additional segments so GC can rewrite them piecemeal.
	segTargetBytes = 256 << 20
)

// segIndex is the persisted segments/index.json: where every stored chunk
// payload physically lives.
type segIndex struct {
	Version int `json:"version"`
	// NextSeg numbers the next segment file, monotonically — names are
	// never reused, so a stale reader can never open a recycled name.
	NextSeg  int               `json:"next_seg"`
	Segments []segFileInfo     `json:"segments"`
	Chunks   map[string]segLoc `json:"chunks"`
}

type segFileInfo struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// segLoc addresses one chunk payload: Segments[Seg], Len payload bytes at
// byte offset Off (past the record header).
type segLoc struct {
	Seg int   `json:"seg"`
	Off int64 `json:"off"`
	Len int64 `json:"len"`
}

func segName(n int) string {
	return fmt.Sprintf("seg-%06d.seg", n)
}

func segPath(dir, name string) string {
	return filepath.Join(dir, segmentsDir, name)
}

func segIndexPath(dir string) string {
	return filepath.Join(dir, segmentsDir, segIndexName)
}

// parseSegIndex decodes and validates an index blob. Every location must
// address payload bytes inside its segment file past the magic header.
func parseSegIndex(blob []byte) (*segIndex, error) {
	var idx segIndex
	if err := json.Unmarshal(blob, &idx); err != nil {
		return nil, fmt.Errorf("%w: segment index: %v", ErrStore, err)
	}
	if idx.Version != 1 {
		return nil, fmt.Errorf("%w: unsupported segment index version %d", ErrStore, idx.Version)
	}
	for i, sf := range idx.Segments {
		if sf.Name == "" || sf.Name != filepath.Base(sf.Name) || strings.HasPrefix(sf.Name, ".") {
			return nil, fmt.Errorf("%w: segment index: bad segment name %q", ErrStore, sf.Name)
		}
		if sf.Size < int64(len(segMagic)) {
			return nil, fmt.Errorf("%w: segment index: segment %d impossibly small", ErrStore, i)
		}
	}
	for sum, loc := range idx.Chunks {
		if len(sum) != 2*sha256.Size {
			return nil, fmt.Errorf("%w: segment index: bad chunk key %q", ErrStore, sum)
		}
		if _, err := hex.DecodeString(sum); err != nil {
			return nil, fmt.Errorf("%w: segment index: bad chunk key %q", ErrStore, sum)
		}
		if loc.Seg < 0 || loc.Seg >= len(idx.Segments) {
			return nil, fmt.Errorf("%w: segment index: chunk %s references segment %d of %d", ErrStore, sum, loc.Seg, len(idx.Segments))
		}
		if loc.Len <= 0 || loc.Off < int64(len(segMagic))+segRecordOverhead ||
			loc.Off+loc.Len > idx.Segments[loc.Seg].Size {
			return nil, fmt.Errorf("%w: segment index: chunk %s location out of bounds", ErrStore, sum)
		}
	}
	return &idx, nil
}

// segRecord is one record parsed out of a segment file body.
type segRecord struct {
	Sum string
	Off int64 // payload offset within the file
	Len int64
}

// scanSegmentRecords parses a whole segment file — the recovery path when
// segments/index.json is missing or unreadable, and the surface
// FuzzSegmentIndex exercises. Malformed input yields a typed error, never a
// panic.
func scanSegmentRecords(data []byte) ([]segRecord, error) {
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return nil, fmt.Errorf("%w: segment file missing magic header", ErrStore)
	}
	var recs []segRecord
	off := int64(len(segMagic))
	for off < int64(len(data)) {
		if int64(len(data))-off < segRecordOverhead {
			return nil, fmt.Errorf("%w: truncated record header at offset %d", ErrStore, off)
		}
		n := int64(binary.BigEndian.Uint32(data[off:]))
		sum := data[off+4 : off+segRecordOverhead]
		payloadOff := off + segRecordOverhead
		if n == 0 || n > int64(len(data))-payloadOff {
			return nil, fmt.Errorf("%w: record at offset %d overruns segment (payload length %d)", ErrStore, off, n)
		}
		recs = append(recs, segRecord{Sum: hex.EncodeToString(sum), Off: payloadOff, Len: n})
		off = payloadOff + n
	}
	return recs, nil
}

// syncDir fsyncs a directory so a just-renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		return errors.Join(err, d.Close())
	}
	return d.Close()
}

// writeFileAtomic writes blob to path with full durability barriers: a temp
// file in the target directory, write, fsync, rename over path, fsync the
// parent directory. A crash at any point leaves either the old file or the
// complete new one — never a torn or truncated file.
func writeFileAtomic(path string, blob []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, segTmpPrefix+"*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(blob); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close(), os.Remove(tmp))
	}
	if err := f.Close(); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	if err := os.Rename(tmp, path); err != nil {
		return errors.Join(err, os.Remove(tmp))
	}
	return syncDir(dir)
}

// segPayload is one chunk payload headed into a segment file.
type segPayload struct {
	sum  string
	data []byte
}

// writeSegments packs payloads into one or more new segment files, rolling
// over at segTargetBytes. Each file is written to a temp name, fsynced,
// renamed to its final seg-NNNNNN.seg name (numbered from idx.NextSeg, which
// is advanced), and the segments directory is fsynced after the renames.
// Returned locations key payload sums to (segment, offset, length) with Seg
// indexing the returned infos slice; the caller offsets Seg into its index.
func writeSegments(dir string, idx *segIndex, payloads []segPayload) ([]segFileInfo, map[string]segLoc, error) {
	locs := make(map[string]segLoc, len(payloads))
	if len(payloads) == 0 {
		return nil, locs, nil
	}
	segDir := filepath.Join(dir, segmentsDir)
	var infos []segFileInfo

	var f *os.File
	var tmp string
	var size int64
	fail := func(err error) ([]segFileInfo, map[string]segLoc, error) {
		if f != nil {
			err = errors.Join(err, f.Close(), os.Remove(tmp))
		}
		return nil, nil, err
	}
	seal := func() error {
		if err := f.Sync(); err != nil {
			return errors.Join(err, f.Close(), os.Remove(tmp))
		}
		if err := f.Close(); err != nil {
			return errors.Join(err, os.Remove(tmp))
		}
		name := segName(idx.NextSeg)
		if err := os.Rename(tmp, segPath(dir, name)); err != nil {
			return errors.Join(err, os.Remove(tmp))
		}
		idx.NextSeg++
		infos = append(infos, segFileInfo{Name: name, Size: size})
		f = nil
		return nil
	}
	var hdr [segRecordOverhead]byte
	for _, p := range payloads {
		if f == nil {
			var err error
			f, err = os.CreateTemp(segDir, segTmpPrefix+"*")
			if err != nil {
				return nil, nil, err
			}
			tmp = f.Name()
			if _, err := f.WriteString(segMagic); err != nil {
				return fail(err)
			}
			size = int64(len(segMagic))
		}
		raw, err := hex.DecodeString(p.sum)
		if err != nil || len(raw) != sha256.Size {
			return fail(fmt.Errorf("%w: bad payload sum %q", ErrStore, p.sum))
		}
		binary.BigEndian.PutUint32(hdr[:4], uint32(len(p.data)))
		copy(hdr[4:], raw)
		if _, err := f.Write(hdr[:]); err != nil {
			return fail(err)
		}
		if _, err := f.Write(p.data); err != nil {
			return fail(err)
		}
		locs[p.sum] = segLoc{Seg: len(infos), Off: size + segRecordOverhead, Len: int64(len(p.data))}
		size += segRecordOverhead + int64(len(p.data))
		if size >= segTargetBytes {
			if err := seal(); err != nil {
				return nil, nil, err
			}
		}
	}
	if f != nil {
		if err := seal(); err != nil {
			return nil, nil, err
		}
	}
	if err := syncDir(segDir); err != nil {
		return nil, nil, err
	}
	return infos, locs, nil
}

// appendSegments packs the payloads the directory's segment index does not
// already hold (deduplicated by content sum, within the batch too) into new
// segment files, then commits the extended index. It returns the number of
// segment files written.
func appendSegments(dir string, payloads []segPayload) (int, error) {
	if err := os.MkdirAll(filepath.Join(dir, segmentsDir), 0o755); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrStore, err)
	}
	idx := loadOrInitSegIndex(dir)
	seen := make(map[string]bool, len(payloads))
	var fresh []segPayload
	for _, p := range payloads {
		if _, ok := idx.Chunks[p.sum]; ok || seen[p.sum] {
			mSegmentDedupHits.Inc()
			mSegmentDedupBytes.Add(int64(len(p.data)))
			continue
		}
		seen[p.sum] = true
		fresh = append(fresh, p)
	}
	infos, locs, err := writeSegments(dir, idx, fresh)
	if err != nil {
		return 0, fmt.Errorf("%w: writing segments: %v", ErrStore, err)
	}
	base := len(idx.Segments)
	idx.Segments = append(idx.Segments, infos...)
	for sum, loc := range locs {
		loc.Seg += base
		idx.Chunks[sum] = loc
	}
	return len(infos), saveSegIndex(dir, idx)
}

// saveSegIndex persists the index atomically and refreshes the segment
// gauges.
func saveSegIndex(dir string, idx *segIndex) error {
	blob, err := json.MarshalIndent(idx, "", " ")
	if err != nil {
		return err
	}
	if err := writeFileAtomic(segIndexPath(dir), blob); err != nil {
		return fmt.Errorf("%w: writing segment index: %v", ErrStore, err)
	}
	noteSegmentGauges(idx)
	return nil
}

// noteSegmentGauges publishes the segment count and on-disk byte total.
func noteSegmentGauges(idx *segIndex) {
	gSegmentCount.Set(int64(len(idx.Segments)))
	var bytes int64
	for _, sf := range idx.Segments {
		bytes += sf.Size
	}
	gSegmentDiskBytes.Set(bytes)
}

// loadSegIndex reads segments/index.json. A missing or unreadable index is
// rebuilt by scanning the segment files themselves (record headers carry
// each payload's sum), then re-persisted — the PR-5-style reconcile-on-open.
func loadSegIndex(dir string) (*segIndex, error) {
	blob, err := os.ReadFile(segIndexPath(dir))
	if err == nil {
		if idx, perr := parseSegIndex(blob); perr == nil {
			return idx, nil
		}
		return rebuildSegIndex(dir)
	}
	if os.IsNotExist(err) {
		return rebuildSegIndex(dir)
	}
	return nil, fmt.Errorf("%w: reading segment index: %v", ErrStore, err)
}

// rebuildSegIndex reconstructs the index from segment record headers. The
// payload checksums are not verified here — reads verify against the
// manifest's per-plane sums, so a corrupted payload still surfaces as a
// checksum mismatch at retrieval time.
func rebuildSegIndex(dir string) (*segIndex, error) {
	names, err := filepath.Glob(segPath(dir, "seg-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrStore, err)
	}
	sort.Strings(names)
	idx := &segIndex{Version: 1, Chunks: make(map[string]segLoc)}
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("%w: rebuilding segment index: %v", ErrStore, err)
		}
		recs, err := scanSegmentRecords(data)
		if err != nil {
			return nil, fmt.Errorf("%w: rebuilding segment index from %s: %v", ErrStore, filepath.Base(path), err)
		}
		si := len(idx.Segments)
		idx.Segments = append(idx.Segments, segFileInfo{Name: filepath.Base(path), Size: int64(len(data))})
		for _, r := range recs {
			if _, dup := idx.Chunks[r.Sum]; dup {
				continue
			}
			idx.Chunks[r.Sum] = segLoc{Seg: si, Off: r.Off, Len: r.Len}
		}
		// seg-NNNNNN.seg → keep NextSeg past every existing number.
		var n int
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%06d.seg", &n); err == nil && n >= idx.NextSeg {
			idx.NextSeg = n + 1
		}
	}
	if err := saveSegIndex(dir, idx); err != nil {
		return nil, err
	}
	obs.Logger().Warn("pas: rebuilt segment index from segment files",
		"dir", dir, "segments", len(idx.Segments), "chunks", len(idx.Chunks))
	return idx, nil
}

// loadOrInitSegIndex is loadSegIndex for Create: with no usable index and no
// scannable segments it starts fresh (numbering past any existing segment
// files so names are never reused) instead of failing — Create rewrites the
// manifest, so unreferenced leftovers are just garbage for the next GC.
func loadOrInitSegIndex(dir string) *segIndex {
	idx, err := loadSegIndex(dir)
	if err == nil {
		return idx
	}
	idx = &segIndex{Version: 1, Chunks: make(map[string]segLoc)}
	if names, gerr := filepath.Glob(segPath(dir, "seg-*.seg")); gerr == nil {
		for _, path := range names {
			var n int
			if _, serr := fmt.Sscanf(filepath.Base(path), "seg-%06d.seg", &n); serr == nil && n >= idx.NextSeg {
				idx.NextSeg = n + 1
			}
		}
	}
	return idx
}

// segReader serves chunk payloads out of segment files: an in-memory index
// plus lazily opened, long-lived file handles, so a checkout opens each
// segment once rather than once per plane read. GC swaps in a
// rewritten index under the mutex and retires the handles of unlinked
// segments to a graveyard that stays open until Close, so a concurrent
// reader's in-flight ReadAt still sees the bytes its index snapshot named.
type segReader struct {
	dir string

	mu    sync.Mutex
	idx   *segIndex
	files map[string]*os.File
	grave []*os.File

	// cmu serializes GC/repack passes against each other.
	cmu sync.Mutex
}

// read returns the payload stored for sum. The caller verifies the bytes
// against the manifest's recorded checksum.
func (r *segReader) read(sum string) ([]byte, error) {
	r.mu.Lock()
	loc, ok := r.idx.Chunks[sum]
	if !ok || loc.Seg >= len(r.idx.Segments) {
		r.mu.Unlock()
		return nil, fmt.Errorf("chunk %.12s… not in segment index", sum)
	}
	sf := r.idx.Segments[loc.Seg]
	f, ok := r.files[sf.Name]
	if !ok {
		var err error
		f, err = os.Open(segPath(r.dir, sf.Name))
		if err != nil {
			r.mu.Unlock()
			return nil, err
		}
		mSegmentOpens.Inc()
		r.files[sf.Name] = f
	}
	r.mu.Unlock()

	buf := make([]byte, loc.Len)
	if _, err := f.ReadAt(buf, loc.Off); err != nil {
		return nil, fmt.Errorf("segment %s: %w", sf.Name, err)
	}
	return buf, nil
}

// snapshotIndex returns the current index under the lock.
func (r *segReader) snapshotIndex() *segIndex {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.idx
}

// swap installs a rewritten index. Handles of segments the new index no
// longer names move to the graveyard (kept open for in-flight reads) instead
// of being closed.
func (r *segReader) swap(idx *segIndex) {
	keep := make(map[string]bool, len(idx.Segments))
	for _, sf := range idx.Segments {
		keep[sf.Name] = true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, f := range r.files {
		if !keep[name] {
			r.grave = append(r.grave, f)
			delete(r.files, name)
		}
	}
	r.idx = idx
}

func (r *segReader) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var err error
	for name, f := range r.files {
		err = errors.Join(err, f.Close())
		delete(r.files, name)
	}
	for _, f := range r.grave {
		err = errors.Join(err, f.Close())
	}
	r.grave = nil
	return err
}

// Close releases the store's open segment file handles, including handles
// GC retired while readers were in flight. The store must not be used after
// Close.
func (s *Store) Close() error {
	return s.seg.close()
}

// StoredChunks counts physically stored chunk payloads: index records,
// after dedup.
func (s *Store) StoredChunks() int {
	return len(s.seg.snapshotIndex().Chunks)
}

// SegmentDiskBytes sums the on-disk sizes of the archive's segment files.
func (s *Store) SegmentDiskBytes() int64 {
	idx := s.seg.snapshotIndex()
	var total int64
	for _, sf := range idx.Segments {
		total += sf.Size
	}
	return total
}

// liveSums collects the payload checksums the manifest references.
func (s *Store) liveSums() map[string]bool {
	live := make(map[string]bool)
	for i := range s.man.Nodes {
		n := &s.man.Nodes[i]
		start, end := nodePlanes(n)
		for p := start; p < end; p++ {
			if n.PlaneSum[p] != "" {
				live[n.PlaneSum[p]] = true
			}
		}
	}
	return live
}

// GCStats reports what a GC or repack pass did.
type GCStats struct {
	// Segments is the number of segment files after the pass.
	Segments int
	// Rewritten counts victim segments that were compacted and unlinked.
	Rewritten int
	// DroppedChunks counts stored payloads no longer referenced by the
	// manifest that the pass discarded.
	DroppedChunks int
	// ReclaimedBytes is the net disk space freed (victim bytes minus
	// replacement bytes).
	ReclaimedBytes int64
	// LiveBytes is the payload byte total the manifest references.
	LiveBytes int64
}

// GC compacts segment files that hold unreferenced payloads — garbage left
// by re-archiving (dedup makes older payloads unreferenced rather than
// overwritten) — and reclaims their disk space. Safe under concurrent
// readers of the same Store: live payloads are rewritten into new segments,
// the index flips atomically (the commit point), and only then are victim
// files unlinked; displaced open handles survive in the reader's graveyard.
func (s *Store) GC() (GCStats, error) {
	return s.compact(false)
}

// Repack rewrites every segment file into freshly packed segments —
// GC plus defragmentation, coalescing small segments left by repeated
// archive appends. Uses the same commit order as GC.
func (s *Store) Repack() (GCStats, error) {
	return s.compact(true)
}

func (s *Store) compact(all bool) (GCStats, error) {
	s.seg.cmu.Lock()
	defer s.seg.cmu.Unlock()
	idx := s.seg.snapshotIndex()
	live := s.liveSums()

	liveBySeg := make([]int64, len(idx.Segments)) // live record bytes incl. headers
	deadBySeg := make([]int, len(idx.Segments))
	var liveBytes int64
	dropped := 0
	for sum, loc := range idx.Chunks {
		if live[sum] {
			liveBySeg[loc.Seg] += segRecordOverhead + loc.Len
			liveBytes += loc.Len
		} else {
			deadBySeg[loc.Seg]++
			dropped++
		}
	}
	victims := make(map[int]bool)
	for i, sf := range idx.Segments {
		if all || deadBySeg[i] > 0 || sf.Size != int64(len(segMagic))+liveBySeg[i] {
			victims[i] = true
		}
	}
	// A clean single segment has nothing to gain from repacking.
	if all && dropped == 0 && len(idx.Segments) <= 1 {
		victims = nil
	}
	if len(victims) == 0 {
		return GCStats{Segments: len(idx.Segments), LiveBytes: liveBytes}, nil
	}

	// Gather the live payloads of victim segments in (segment, offset)
	// order — one sequential sweep per victim file.
	var sums []string
	for sum, loc := range idx.Chunks {
		if live[sum] && victims[loc.Seg] {
			sums = append(sums, sum)
		}
	}
	sort.Slice(sums, func(i, j int) bool {
		a, b := idx.Chunks[sums[i]], idx.Chunks[sums[j]]
		if a.Seg != b.Seg {
			return a.Seg < b.Seg
		}
		return a.Off < b.Off
	})
	payloads := make([]segPayload, 0, len(sums))
	for _, sum := range sums {
		data, err := s.seg.read(sum)
		if err != nil {
			return GCStats{}, fmt.Errorf("%w: gc reading chunk %.12s…: %v", ErrStore, sum, err)
		}
		got := sha256.Sum256(data)
		if hex.EncodeToString(got[:]) != sum {
			return GCStats{}, fmt.Errorf("%w: gc: chunk checksum mismatch for %.12s… — refusing to compact a corrupted segment", ErrStore, sum)
		}
		payloads = append(payloads, segPayload{sum: sum, data: data})
	}

	// Build the replacement index: survivors keep their files (positions
	// remapped), compacted payloads land in fresh segments.
	newIdx := &segIndex{Version: 1, NextSeg: idx.NextSeg, Chunks: make(map[string]segLoc, len(idx.Chunks)-dropped)}
	remap := make(map[int]int)
	for i, sf := range idx.Segments {
		if !victims[i] {
			remap[i] = len(newIdx.Segments)
			newIdx.Segments = append(newIdx.Segments, sf)
		}
	}
	base := len(newIdx.Segments)
	infos, locs, err := writeSegments(s.dir, newIdx, payloads)
	if err != nil {
		return GCStats{}, fmt.Errorf("%w: gc writing segments: %v", ErrStore, err)
	}
	newIdx.Segments = append(newIdx.Segments, infos...)
	for sum, loc := range idx.Chunks {
		if !live[sum] {
			continue
		}
		if victims[loc.Seg] {
			nl := locs[sum]
			nl.Seg += base
			newIdx.Chunks[sum] = nl
		} else {
			loc.Seg = remap[loc.Seg]
			newIdx.Chunks[sum] = loc
		}
	}
	if err := saveSegIndex(s.dir, newIdx); err != nil {
		return GCStats{}, err
	}
	s.seg.swap(newIdx) // commit for in-process readers

	var reclaimed int64
	for i, sf := range idx.Segments {
		if !victims[i] {
			continue
		}
		reclaimed += sf.Size
		if err := os.Remove(segPath(s.dir, sf.Name)); err != nil {
			// The index no longer names this file; a leftover only wastes
			// space until the next pass.
			obs.Logger().Warn("pas: gc could not unlink victim segment", "segment", sf.Name, "err", err)
		}
	}
	for _, sf := range infos {
		reclaimed -= sf.Size
	}
	mSegmentGCRuns.Inc()
	if reclaimed > 0 {
		mSegmentGCReclaimed.Add(reclaimed)
	}
	return GCStats{
		Segments:       len(newIdx.Segments),
		Rewritten:      len(victims),
		DroppedChunks:  dropped,
		ReclaimedBytes: reclaimed,
		LiveBytes:      liveBytes,
	}, nil
}

// SegmentStat describes one segment file's occupancy (dlv gc -n style
// reporting and tests).
type SegmentStat struct {
	Name       string
	Size       int64
	LiveBytes  int64 // payload bytes the manifest references
	LiveChunks int
	DeadChunks int
}

// SegmentStats reports per-segment occupancy.
func (s *Store) SegmentStats() []SegmentStat {
	idx := s.seg.snapshotIndex()
	live := s.liveSums()
	out := make([]SegmentStat, len(idx.Segments))
	for i, sf := range idx.Segments {
		out[i] = SegmentStat{Name: sf.Name, Size: sf.Size}
	}
	for sum, loc := range idx.Chunks {
		if live[sum] {
			out[loc.Seg].LiveBytes += loc.Len
			out[loc.Seg].LiveChunks++
		} else {
			out[loc.Seg].DeadChunks++
		}
	}
	return out
}

// migrateLegacy converts a Version-1 per-chunk archive to the segment layout
// in place. Commit order mirrors Create: segment files → index → manifest
// (the commit point) → legacy chunk unlink. A crash at any step leaves
// either a readable Version-1 or a readable Version-2 archive. Chunk
// payloads are not verified here — reads verify against the manifest, so
// pre-existing corruption surfaces at retrieval as a checksum mismatch.
// Already-missing chunk files are skipped; their sums stay absent from the
// index and retrieval reports them missing.
func migrateLegacy(dir string, man *manifest) error {
	var payloads []segPayload
	seen := make(map[string]bool)
	for i := range man.Nodes {
		n := &man.Nodes[i]
		start, end := nodePlanes(n)
		for p := start; p < end; p++ {
			sum := n.PlaneSum[p]
			if sum == "" || seen[sum] {
				continue
			}
			z, err := os.ReadFile(chunkPath(dir, n.ID, p, n.Tier))
			if err != nil {
				if os.IsNotExist(err) {
					continue
				}
				return fmt.Errorf("%w: migrating node %d plane %d: %v", ErrStore, n.ID, p, err)
			}
			seen[sum] = true
			payloads = append(payloads, segPayload{sum: sum, data: z})
		}
	}
	segs, err := appendSegments(dir, payloads)
	if err != nil {
		return err
	}
	man.Version = 2
	if err := writeManifest(dir, man); err != nil {
		return err
	}
	removeLegacyDirs(dir)
	mSegmentMigrations.Inc()
	obs.Logger().Info("pas: migrated legacy archive to segment layout",
		"dir", dir, "chunks", len(payloads), "segments", segs)
	return nil
}

// removeLegacyDirs clears the per-chunk directories after the manifest has
// committed to the segment layout. Failures are logged, not fatal: the
// archive is already valid, and the next Open retries the sweep.
func removeLegacyDirs(dir string) {
	for _, sub := range []string{"chunks", "remote"} {
		if err := os.RemoveAll(filepath.Join(dir, sub)); err != nil {
			obs.Logger().Warn("pas: could not remove legacy chunk dir", "dir", sub, "err", err)
		}
	}
}

// reconcileSegmentDir sweeps crash leftovers of a segment-layout archive:
// legacy chunk directories that survived a crash between the migration
// commit and their unlink, and orphaned temp files from interrupted segment
// or index writes. Best-effort; failures are logged.
func reconcileSegmentDir(dir string) {
	removeLegacyDirs(dir)
	for _, pat := range []string{
		filepath.Join(dir, segTmpPrefix+"*"),
		segPath(dir, segTmpPrefix+"*"),
	} {
		names, err := filepath.Glob(pat)
		if err != nil {
			continue
		}
		for _, path := range names {
			if err := os.Remove(path); err != nil {
				obs.Logger().Warn("pas: could not remove stale temp file", "path", path, "err", err)
			}
		}
	}
}
