package dlv

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"modelhub/internal/pas"
)

// rawWeightFiles lists a version's raw snapshot .bin files.
func rawWeightFiles(t *testing.T, r *Repo, versionID int64, snap string) []string {
	t.Helper()
	dir := r.snapshotDir(versionID, snap)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".bin" {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	if len(out) == 0 {
		t.Fatalf("no raw weight files for v%d/%s", versionID, snap)
	}
	return out
}

// A truncated raw weight file must surface as a typed repository error on
// checkout — not a panic, and never silently short weights.
func TestWeightsTruncatedRawFile(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "toy", 21, 0)
	files := rawWeightFiles(t, r, id, LatestSnap)
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], info.Size()/2); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Weights(id, LatestSnap, 4); !errors.Is(err, ErrRepo) {
		t.Fatalf("Weights on truncated raw file = %v, want ErrRepo", err)
	}
}

// A corrupted archive chunk must surface as a typed store error through the
// full checkout path (Repo.Weights -> PAS concurrent retrieval).
func TestWeightsCorruptArchiveChunk(t *testing.T) {
	r := initRepo(t)
	id, _, _ := commitToy(t, r, "toy", 22, 0)
	if _, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(r.Root(), ".dlv", "pas", "segments", "seg-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("archive has no chunk payload files")
	}
	// Flip a bit in every byte of every payload file so the snapshot's
	// chain cannot avoid a corrupted chunk, whichever records it reads.
	for _, path := range files {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i := range blob {
			blob[i] ^= 0x20
		}
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen so neither the memoized store nor its plane caches mask the
	// corruption.
	r2, err := Open(r.Root())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Weights(id, LatestSnap, 4); !errors.Is(err, pas.ErrStore) {
		t.Fatalf("Weights on corrupted archive = %v, want pas.ErrStore", err)
	}
}
