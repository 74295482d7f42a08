package pas

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"modelhub/internal/floatenc"
	"modelhub/internal/obs"
)

// v1Fixture is the golden Version-1 archive (see testdata/README.md).
const v1Fixture = "testdata/v1"

// v1FixtureSnaps returns the snapshots the golden fixture archived.
func v1FixtureSnaps() []SnapshotIn { return makeSnaps(32, 3, 0) }

// copyV1Fixture copies the golden Version-1 archive into a fresh temporary
// directory: Open migrates it in place, so tests never open testdata itself.
func copyV1Fixture(t testing.TB) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(v1Fixture, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(v1Fixture, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), blob, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// countFiles counts the regular files directly under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(names)
}

// checkoutPrefixesExact asserts every snapshot decodes, under every retrieval
// scheme and every prefix, bit-exactly to the truncation of the truth.
func checkoutPrefixesExact(t *testing.T, st *Store, snaps []SnapshotIn) {
	t.Helper()
	for _, scheme := range []Scheme{Independent, Parallel, Reusable, Concurrent} {
		for prefix := 1; prefix <= 4; prefix++ {
			for _, snap := range snaps {
				got, err := st.GetSnapshot(snap.ID, prefix, scheme)
				if err != nil {
					t.Fatalf("%v prefix %d: snapshot %s: %v", scheme, prefix, snap.ID, err)
				}
				for name, m := range snap.Matrices {
					want, err := segTrunc(m, prefix)
					if err != nil {
						t.Fatal(err)
					}
					if !got[name].Equal(want) {
						t.Fatalf("%v prefix %d: snapshot %s matrix %s mismatch", scheme, prefix, snap.ID, name)
					}
				}
			}
		}
	}
}

// editManifestNode rewrites one field of node i in dir's manifest.json.
func editManifestNode(t *testing.T, dir string, i int, field string, value any) {
	t.Helper()
	path := filepath.Join(dir, "manifest.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	man["nodes"].([]any)[i].(map[string]any)[field] = value
	if blob, err = json.Marshal(man); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// The golden Version-1 archive must migrate in place on Open: chunks repack
// into segments, the per-chunk directories disappear, and every retrieval
// is bit-exact under every scheme and prefix. A second Open must not
// migrate again.
func TestMigrateLegacyRoundTrip(t *testing.T) {
	dir := copyV1Fixture(t)
	if countFiles(t, filepath.Join(dir, "chunks")) == 0 || countFiles(t, filepath.Join(dir, "remote")) == 0 {
		t.Fatal("fixture must hold payloads on both the local and the remote tier")
	}
	obs.Enable() // counters are no-ops while metrics are disabled
	migrations := mSegmentMigrations.Value()

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.man.Version != 2 || mSegmentMigrations.Value() != migrations+1 {
		t.Fatalf("open did not migrate: version %d, migrations %d -> %d",
			st.man.Version, migrations, mSegmentMigrations.Value())
	}
	for _, sub := range []string{"chunks", "remote"} {
		if _, err := os.Stat(filepath.Join(dir, sub)); !os.IsNotExist(err) {
			t.Fatalf("legacy %s dir survived migration: %v", sub, err)
		}
	}
	if countFiles(t, filepath.Join(dir, segmentsDir)) == 0 {
		t.Fatal("no segment files after migration")
	}
	snaps := v1FixtureSnaps()
	checkoutPrefixesExact(t, st, snaps)

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if mSegmentMigrations.Value() != migrations+1 {
		t.Fatal("second open migrated again")
	}
	checkoutAllExact(t, st2, snaps, Concurrent)
}

// Damage to a Version-1 chunk carries through migration: a bit-flipped
// chunk fails its checksum at retrieval, and a missing one is absent from
// the segment index; both surface as ErrStore.
func TestMigrateLegacyBitFlippedChunk(t *testing.T) {
	dir := copyV1Fixture(t)
	path := filepath.Join(dir, "chunks", "n000001.p0")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	expectCorruptionSurfaces(t, dir, v1FixtureSnaps())
}

func TestMigrateLegacyMissingChunk(t *testing.T) {
	dir := copyV1Fixture(t)
	if err := os.Remove(filepath.Join(dir, "remote", "n000005.p0")); err != nil {
		t.Fatal(err)
	}
	expectCorruptionSurfaces(t, dir, v1FixtureSnaps())
}

// A re-archive that fails before its manifest commits must leave a
// Version-1 archive readable: the per-chunk directories may go only once
// the new manifest is durable.
func TestCreateFailureKeepsV1Archive(t *testing.T) {
	dir := copyV1Fixture(t)
	snaps := v1FixtureSnaps()
	// A regular file where the segments directory belongs makes Create fail
	// before it writes any segment.
	blocker := filepath.Join(dir, segmentsDir)
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, snaps[:2], Options{}); !errors.Is(err, ErrStore) {
		t.Fatalf("Create over a blocked segments path = %v, want ErrStore", err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	checkoutAllExact(t, st, snaps, Independent)
}

// An out-of-range plane_end must fail Open with ErrStore for both manifest
// versions, instead of panicking in the migrator (Version 1) or in GC's
// liveness scan (Version 2).
func TestOpenRejectsBadPlaneEnd(t *testing.T) {
	v1 := copyV1Fixture(t)
	editManifestNode(t, v1, 3, "plane_end", 9)
	if _, err := Open(v1); !errors.Is(err, ErrStore) {
		t.Fatalf("v1 open with plane_end 9 = %v, want ErrStore", err)
	}
	v2 := t.TempDir()
	if _, err := Create(v2, makeSnaps(44, 2, 0), Options{PlaneGranularity: true}); err != nil {
		t.Fatal(err)
	}
	editManifestNode(t, v2, 3, "plane_end", 9)
	if _, err := Open(v2); !errors.Is(err, ErrStore) {
		t.Fatalf("v2 open with plane_end 9 = %v, want ErrStore", err)
	}
}

// Every manifest node field that retrieval, migration or GC indexes with is
// validated on Open.
func TestOpenRejectsMalformedNodes(t *testing.T) {
	snaps := makeSnaps(45, 2, 0)
	// Node 3 (index 2) stores planes [0, 2).
	for _, c := range []struct {
		name string
		set  map[string]any
	}{
		{"zero id", map[string]any{"id": 0}},
		{"duplicate id", map[string]any{"id": 1}},
		{"negative plane_start", map[string]any{"plane_start": -1}},
		{"empty plane range", map[string]any{"plane_start": 2}},
		{"start without end", map[string]any{"plane_start": 1, "plane_end": 0}},
		{"negative rows", map[string]any{"rows": -1}},
		{"negative cols", map[string]any{"cols": -1}},
		{"unknown tier", map[string]any{"tier": 2}},
		{"unknown parent", map[string]any{"parent": 99}},
	} {
		dir := t.TempDir()
		if _, err := Create(dir, snaps, Options{PlaneGranularity: true}); err != nil {
			t.Fatal(err)
		}
		for field, value := range c.set {
			editManifestNode(t, dir, 2, field, value)
		}
		if _, err := Open(dir); !errors.Is(err, ErrStore) {
			t.Errorf("%s: open = %v, want ErrStore", c.name, err)
		}
	}
}

// FuzzOpenManifest fuzzes the manifest decoder behind Open. It must never
// panic and must reject bad input with ErrStore, and an accepted manifest
// must be safe for the walks Open's callers make over it: the liveness scan
// GC and migration share, and every node's delta chain (wired into make
// fuzz-smoke).
func FuzzOpenManifest(f *testing.F) {
	v1, err := os.ReadFile(filepath.Join(v1Fixture, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	v2dir := f.TempDir()
	if _, err := Create(v2dir, makeSnaps(46, 2, 0), Options{PlaneGranularity: true}); err != nil {
		f.Fatal(err)
	}
	v2, err := os.ReadFile(filepath.Join(v2dir, "manifest.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)

	f.Fuzz(func(t *testing.T, blob []byte) {
		man, err := parseManifest(blob)
		if err != nil {
			if !errors.Is(err, ErrStore) {
				t.Fatalf("parse error %v is not ErrStore", err)
			}
			return
		}
		st := &Store{man: *man}
		st.liveSums()
		st.TotalChunkBytes(floatenc.NumPlanes)
		for _, n := range man.Nodes {
			if _, err := st.chainOf(n.ID); err != nil && !errors.Is(err, ErrStore) {
				t.Fatalf("chain walk error %v is not ErrStore", err)
			}
		}
	})
}
