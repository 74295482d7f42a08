package dlv

import (
	"errors"
	"sync"
	"testing"

	"modelhub/internal/floatenc"
)

// Re-archiving with degraded checkpoints displaces the original lossless
// checkpoint payloads — garbage only GC reclaims. The latest snapshot must
// stay exact throughout, including for checkouts racing the GC (run under
// -race in CI).
func TestGCReclaimsAfterRearchive(t *testing.T) {
	r := initRepo(t)
	id, res, _ := commitToy(t, r, "toy", 51, 0)
	if _, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2}); err != nil {
		t.Fatal(err)
	}
	// Settle the archive first so the later GC's reclaimed bytes measure
	// re-archive garbage, not first-write fragmentation.
	if _, err := r.GC(); err != nil {
		t.Fatal(err)
	}

	fixed := &floatenc.Scheme{Kind: floatenc.Fixed, Bits: 8}
	if _, err := r.Archive(ArchiveOptions{Algorithm: "pas-mt", Alpha: 2, CheckpointScheme: fixed}); err != nil {
		t.Fatal(err)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup
	readErrs := make([]error, 4)
	for w := 0; w < len(readErrs); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 5; i++ {
				weights, err := r.Weights(id, LatestSnap, 4)
				if err != nil {
					readErrs[w] = err
					return
				}
				for name, want := range res.Final {
					if !weights[name].Equal(want) {
						readErrs[w] = errors.New("latest weights drifted for " + name)
						return
					}
				}
			}
		}(w)
	}
	close(start)
	stats, err := r.GC()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for _, err := range readErrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if stats.DroppedChunks == 0 || stats.ReclaimedBytes <= 0 {
		t.Fatalf("gc reclaimed nothing after degrading re-archive: %+v", stats)
	}

	// Repack coalesces what several archive passes fragmented.
	rstats, err := r.Repack()
	if err != nil {
		t.Fatal(err)
	}
	if rstats.Segments != 1 {
		t.Fatalf("repack left %d segments, want 1", rstats.Segments)
	}
	weights, err := r.Weights(id, LatestSnap, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range res.Final {
		if !weights[name].Equal(want) {
			t.Fatalf("latest weights wrong after repack: %s", name)
		}
	}
}

// GC before any archive exists must fail typed, not panic.
func TestGCUnarchivedRepo(t *testing.T) {
	r := initRepo(t)
	commitToy(t, r, "toy", 52, 0)
	if _, err := r.GC(); !errors.Is(err, ErrRepo) {
		t.Fatalf("gc on unarchived repo = %v, want ErrRepo", err)
	}
	if _, err := r.Repack(); !errors.Is(err, ErrRepo) {
		t.Fatalf("repack on unarchived repo = %v, want ErrRepo", err)
	}
}
