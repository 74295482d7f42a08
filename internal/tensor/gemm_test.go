package tensor

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.data {
		m.data[i] = float32(rng.NormFloat64())
	}
	return m
}

// TestGemmMatchesRef: the blocked kernel must be bit-identical to the
// reference triple loop across random shapes — the determinism contract says
// blocking and tiling may not change any element's summation order.
func TestGemmMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(300), 1+rng.Intn(70)
		a, b := randMat(rng, m, k), randMat(rng, k, n)
		want, err := a.MatMulRef(b)
		if err != nil {
			t.Fatal(err)
		}
		got := NewMatrix(m, n)
		if err := Gemm(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (%dx%dx%d): Gemm differs from reference", trial, m, k, n)
		}
		viaMatMul, err := a.MatMul(b)
		if err != nil {
			t.Fatal(err)
		}
		if !viaMatMul.Equal(want) {
			t.Fatalf("trial %d: MatMul delegate differs from reference", trial)
		}
	}
}

// TestGemmWorkerInvariance: results must not depend on the worker count.
func TestGemmWorkerInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randMat(rng, 120, 90), randMat(rng, 90, 110)
	prev := SetGemmWorkers(1)
	defer SetGemmWorkers(prev)
	serial := NewMatrix(120, 110)
	if err := Gemm(serial, a, b); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		SetGemmWorkers(w)
		got := NewMatrix(120, 110)
		if err := Gemm(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(serial) {
			t.Fatalf("workers=%d differs from serial", w)
		}
	}
}

// TestGemmAcc: accumulate form adds on top of the destination.
func TestGemmAcc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, b := randMat(rng, 5, 7), randMat(rng, 7, 4)
	dst := randMat(rng, 5, 4)
	init := dst.Clone()
	if err := GemmAcc(dst, a, b); err != nil {
		t.Fatal(err)
	}
	// Reference: per-term accumulation on top of the initial contents (the
	// same order the kernel guarantees — NOT init + full product, which
	// rounds differently).
	want := init.Clone()
	for i := 0; i < a.rows; i++ {
		for k := 0; k < a.cols; k++ {
			av := a.At(i, k)
			for j := 0; j < b.cols; j++ {
				want.data[i*want.cols+j] += av * b.At(k, j)
			}
		}
	}
	if !dst.Equal(want) {
		t.Fatal("GemmAcc differs from per-term reference")
	}
	if err := Gemm(NewMatrix(5, 5), a, b); err == nil {
		t.Fatal("want shape error for bad dst")
	}
	if err := Gemm(NewMatrix(5, 4), b, a); err == nil {
		t.Fatal("want shape error for incompatible inner dims")
	}
}

// TestGemmStridedBiasColumnView: the strided form addresses a weight matrix
// whose last (bias) column is excluded via lda = k+1, the conv layout.
func TestGemmStridedBiasColumnView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const m, k, n = 6, 11, 9
	w := randMat(rng, m, k+1) // trailing bias column must be ignored
	b := randMat(rng, k, n)
	got := NewMatrix(m, n)
	GemmStrided(m, n, k, w.data, k+1, b.data, n, got.data, n, false)
	trimmed := NewMatrix(m, k)
	for i := 0; i < m; i++ {
		copy(trimmed.Row(i), w.Row(i)[:k])
	}
	want, _ := trimmed.MatMulRef(b)
	if !got.Equal(want) {
		t.Fatal("strided bias-column view differs from trimmed multiply")
	}
}

// TestGemmTNStrided: C = Aᵀ·B with strided A, against transpose + reference.
// Covers both the packed-panel path (large n) and the direct path (n < 4).
func TestGemmTNStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 8, 40} {
		const m, k = 13, 9
		a := randMat(rng, k, m+2) // two extra columns exercise the stride
		b := randMat(rng, k, n)
		got := NewMatrix(m, n)
		GemmTNStrided(m, n, k, a.data, m+2, b.data, n, got.data, n, false)
		at := NewMatrix(m, k)
		for i := 0; i < k; i++ {
			for j := 0; j < m; j++ {
				at.Set(j, i, a.At(i, j))
			}
		}
		want, _ := at.MatMulRef(b)
		if !got.Equal(want) {
			t.Fatalf("n=%d: TN kernel differs from transpose+reference", n)
		}
	}
}

// TestGemmNTStrided: C = A·Bᵀ against transpose + reference.
func TestGemmNTStrided(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const m, k, n = 7, 12, 10
	a := randMat(rng, m, k)
	b := randMat(rng, n, k)
	got := NewMatrix(m, n)
	GemmNTStrided(m, n, k, a.data, k, b.data, k, got.data, n, false)
	want, _ := a.MatMulRef(b.Transpose())
	if !got.Equal(want) {
		t.Fatal("NT kernel differs from transpose+reference")
	}
	// Accumulate form.
	acc := got.Clone()
	GemmNTStrided(m, n, k, a.data, k, b.data, k, acc.data, n, true)
	for i := range acc.data {
		if acc.data[i] != got.data[i]+want.data[i] {
			t.Fatal("NT accumulate differs")
		}
	}
}

func TestAddScaled(t *testing.T) {
	dst := []float32{1, 2, 3}
	AddScaled(dst, []float32{10, 20, 30}, 0.5)
	for i, want := range []float32{6, 12, 18} {
		if dst[i] != want {
			t.Fatalf("dst[%d] = %v, want %v", i, dst[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on length mismatch")
		}
	}()
	AddScaled(dst, []float32{1}, 1)
}

// TestGemmConcurrent hammers the shared worker pool from many goroutines;
// meaningful under -race (make test-race).
func TestGemmConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a, b := randMat(rng, 64, 64), randMat(rng, 64, 64)
	want, _ := a.MatMulRef(b)
	prev := SetGemmWorkers(4)
	defer SetGemmWorkers(prev)
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := NewMatrix(64, 64)
				if err := Gemm(got, a, b); err != nil {
					errc <- err
					return
				}
				if !got.Equal(want) {
					errc <- ErrShape
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatalf("concurrent gemm: %v", err)
	}
}

// TestTransposeBlockedLarge exercises multi-tile transposes beyond the
// 32-edge tile, which the small fixtures in matrix_test.go do not reach.
func TestTransposeBlockedLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := randMat(rng, 70, 45)
	tr := m.Transpose()
	if tr.Rows() != 45 || tr.Cols() != 70 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("tr[%d,%d] mismatch", j, i)
			}
		}
	}
}

// TestSetGemmWorkersClamp pins the documented clamp rules: negatives restore
// the GOMAXPROCS default (stored as 0), absurd values clamp to the 256
// ceiling, and the previous value is returned.
func TestSetGemmWorkersClamp(t *testing.T) {
	prev := SetGemmWorkers(0)
	defer SetGemmWorkers(prev)

	if got := SetGemmWorkers(-5); got != 0 {
		t.Fatalf("previous after reset = %d, want 0", got)
	}
	if got := GemmWorkers(); got < 1 {
		t.Fatalf("GemmWorkers with negative override = %d, want >= 1", got)
	}
	SetGemmWorkers(1 << 20)
	if got := GemmWorkers(); got != 256 {
		t.Fatalf("GemmWorkers after absurd override = %d, want 256", got)
	}
	if got := SetGemmWorkers(3); got != 256 {
		t.Fatalf("previous after clamp = %d, want 256", got)
	}
	if got := GemmWorkers(); got != 3 {
		t.Fatalf("GemmWorkers = %d, want 3", got)
	}
}

// TestGemmKCAutotune pins the blocking-depth autotuner: the depth stays
// within [64, 1024] across output widths and never shrinks as outputs
// narrow.
func TestGemmKCAutotune(t *testing.T) {
	for _, n := range []int{1, 8, 64, 512, 4096, 1 << 20} {
		kc := gemmKCFor(n)
		if kc < 64 || kc > 1024 {
			t.Fatalf("autotuned kc for n=%d is %d, outside [64, 1024]", n, kc)
		}
	}
	// Narrower outputs must get panels at least as deep as wider ones.
	if gemmKCFor(16) < gemmKCFor(1024) {
		t.Fatalf("kc not monotone: n=16 -> %d < n=1024 -> %d", gemmKCFor(16), gemmKCFor(1024))
	}
}

// TestSetGemmWorkersConcurrent hammers the worker knob from many goroutines
// while kernels run, asserting (under -race) that tuning is safe mid-flight
// and that every result stays bit-identical to the reference.
func TestSetGemmWorkersConcurrent(t *testing.T) {
	prev := SetGemmWorkers(0)
	defer SetGemmWorkers(prev)

	rng := rand.New(rand.NewSource(17))
	a := randMat(rng, 48, 40)
	b := randMat(rng, 40, 52)
	want, err := a.MatMulRef(b)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				SetGemmWorkers((g+i)%7 - 1) // sweeps -1..5, exercising the clamp
				got := NewMatrix(48, 52)
				if err := Gemm(got, a, b); err != nil {
					errc <- err
					return
				}
				if !got.Equal(want) {
					errc <- fmt.Errorf("result diverged from reference at g=%d i=%d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatalf("concurrent tuning: %v", err)
	}
}

// TestGemmWorkerInvarianceLarge runs a multiply big enough to engage the
// chunked work-stealing dispatcher (many chunks per worker) and checks
// bit-identity across worker counts, including counts above the chunk count.
func TestGemmWorkerInvarianceLarge(t *testing.T) {
	prev := SetGemmWorkers(1)
	defer SetGemmWorkers(prev)

	rng := rand.New(rand.NewSource(23))
	a := randMat(rng, 200, 96)
	b := randMat(rng, 96, 64)
	want := NewMatrix(200, 64)
	if err := Gemm(want, a, b); err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 5, 16, 256} {
		SetGemmWorkers(w)
		got := NewMatrix(200, 64)
		if err := Gemm(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("workers=%d diverged from workers=1", w)
		}
	}
}
