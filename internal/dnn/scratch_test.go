package dnn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// trainSnapshot trains a fresh lenet on a fixed toy stream and returns the
// final weights — the bit-identity probe for the scratch arena.
func trainSnapshot(t *testing.T) map[string][]float32 {
	t.Helper()
	n, err := Build(lenetDef(), rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sgd := &SGD{LR: 0.05}
	for step := 0; step < 12; step++ {
		n.ZeroGrads()
		for b := 0; b < 4; b++ {
			in := randVolume(rng, Shape{C: 1, H: 12, W: 12})
			n.LossAndBackward(in, rng.Intn(10))
		}
		sgd.Step(n, 4)
	}
	out := map[string][]float32{}
	for name, w := range n.Params() {
		out[name] = append([]float32(nil), w.Data()...)
	}
	return out
}

// drainScratchPool empties the shared arena: sync.Pool drops its contents
// across two GC cycles.
func drainScratchPool() {
	runtime.GC()
	runtime.GC()
}

// TestScratchPoolingBitIdentical: pooling moves buffers, never math — a
// training run that draws its scratch from a pool holding another network's
// used buffers must produce weights bit-identical to a run on a clean pool.
func TestScratchPoolingBitIdentical(t *testing.T) {
	drainScratchPool()
	clean := trainSnapshot(t)

	other, err := Build(lenetDef(), rand.New(rand.NewSource(97)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(98))
	for i := 0; i < 4; i++ {
		other.ZeroGrads()
		other.LossAndBackward(randVolume(rng, Shape{C: 1, H: 12, W: 12}), i)
	}
	other.ReleaseScratch() // the pool now holds used buffers
	dirty := trainSnapshot(t)

	for name, want := range clean {
		got := dirty[name]
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("layer %q weight %d: dirty pool %v != clean pool %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestScratchPoolingCutsAllocs: once a network's scratch is warm, a training
// step must allocate at most a quarter of what its first (cold) step did —
// the point of the arena.
func TestScratchPoolingCutsAllocs(t *testing.T) {
	n, err := Build(lenetDef(), rand.New(rand.NewSource(43)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(44)), Shape{C: 1, H: 12, W: 12})
	step := func() { n.LossAndBackward(in, 3) }

	drainScratchPool()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	step()
	runtime.ReadMemStats(&after)
	cold := float64(after.Mallocs - before.Mallocs)
	steady := testing.AllocsPerRun(20, step)
	if steady > cold/4 {
		t.Fatalf("steady-state step allocates %.0f/op vs %.0f on the cold step — arena not engaging", steady, cold)
	}
	t.Logf("allocs: cold step %.0f, steady state %.0f/op", cold, steady)
}

// TestReleaseScratchKeepsNetworkUsable: releasing scratch hands buffers back
// to the pool but the network must keep producing identical outputs.
func TestReleaseScratchKeepsNetworkUsable(t *testing.T) {
	n, err := Build(lenetDef(), rand.New(rand.NewSource(45)))
	if err != nil {
		t.Fatal(err)
	}
	in := randVolume(rand.New(rand.NewSource(46)), Shape{C: 1, H: 12, W: 12})
	before := n.Forward(in)
	n.ReleaseScratch()
	after := n.Forward(in)
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatalf("output %d changed across ReleaseScratch: %v vs %v", i, before.Data[i], after.Data[i])
		}
	}
	n.ZeroGrads()
	n.LossAndBackward(in, 1) // must not panic on re-acquired buffers
}

// TestScratchSizeClasses pins the arena's size-class rules: requests round
// up to a power-of-two capacity, returned arenas are recycled, and
// odd-capacity slices are dropped rather than pooled.
func TestScratchSizeClasses(t *testing.T) {
	s := getFloats(100)
	if len(s) != 100 || cap(s) != 128 {
		t.Fatalf("getFloats(100): len %d cap %d, want 100/128", len(s), cap(s))
	}
	for i := range s {
		s[i] = 7
	}
	putFloats(s)
	s2 := getFloats(90)
	if cap(s2) != 128 {
		t.Fatalf("recycled cap = %d, want 128", cap(s2))
	}
	for i, v := range s2 {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %v", i, v)
		}
	}
	// Odd capacities must be dropped, not pooled.
	putFloats(make([]float32, 100))
	// Oversized requests fall through to plain make.
	huge := getFloats((1 << scratchMaxBits) + 1)
	if len(huge) != (1<<scratchMaxBits)+1 {
		t.Fatalf("oversized request len = %d", len(huge))
	}
	putFloats(huge)
}
