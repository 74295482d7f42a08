package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file is the compute core behind the DNN engine's hot paths: a
// cache-blocked, goroutine-parallel float32 GEMM plus the strided and
// transposed variants im2col convolution needs, and small fused helpers
// (AddScaled). Determinism contract: for every output element the k-summation
// runs in strictly increasing k order, one rounding per term, so results are
// bit-identical to the reference triple loop (MatMulRef) regardless of
// blocking or worker count — parallelism only partitions output rows, never
// a single element's reduction.
//
// Parallel dispatch is a work-stealing chunk queue on a shared persistent
// worker pool: output rows are cut into fine-grained chunks sized by a flop
// target, and every participant (the caller plus pool workers) claims the
// next unstarted chunk off an atomic counter until the queue drains. Fast
// workers therefore steal work a static band split would have stranded on
// slow or preempted ones. Cache-blocking depth (the k panel) is autotuned
// from the multiply's column width against an L2 budget instead of a fixed
// constant.

const (
	// gemmL2Bytes is the per-core L2 budget the k-panel autotuner targets.
	// Typical x86 cores have 256KB-1.25MB private L2; the conservative end
	// keeps the streamed B panel resident even on small parts, and larger
	// caches simply see more reuse.
	gemmL2Bytes = 256 << 10
	// gemmKCMin/Max clamp the autotuned k-blocking depth: below 64 the
	// per-panel loop overhead dominates, above 1024 the panel thrashes L1
	// evictions for no additional reuse.
	gemmKCMin = 64
	gemmKCMax = 1024
	// gemmParallelMin is the flop floor (m*n*k) below which dispatching to
	// the worker pool costs more than the multiply.
	gemmParallelMin = 32 * 1024
	// gemmChunkFlops is the work-stealing granularity target: each claimed
	// chunk carries at least this many flops so the claim's atomic increment
	// and cache handoff are amortized.
	gemmChunkFlops = 96 * 1024
	// gemmChunksPerWorker bounds how fine chunking may get: at most this
	// many chunks per worker, so tiny multiplies are not shredded into
	// claim-counter contention.
	gemmChunksPerWorker = 8
	// gemmMaxWorkers is the clamp ceiling for SetGemmWorkers — beyond it the
	// claim counter and memory bandwidth are the bottleneck, not cores.
	gemmMaxWorkers = 256
	// gemmMaxPoolWorkers caps the persistent pool; dispatches wanting more
	// helpers than this spawn the difference as fresh goroutines.
	gemmMaxPoolWorkers = 64
)

// gemmWorkerOverride holds the package-level worker override; <= 0 means use
// GOMAXPROCS.
var gemmWorkerOverride atomic.Int32

// SetGemmWorkers overrides the number of workers GEMM dispatches to and
// returns the previous override. Values clamp to a documented rule rather
// than silently misbehaving: n <= 0 restores the GOMAXPROCS-derived default,
// and n > 256 (gemmMaxWorkers) clamps to 256. Safe to call concurrently with
// running kernels (they snapshot the setting at dispatch).
func SetGemmWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	if n > gemmMaxWorkers {
		n = gemmMaxWorkers
	}
	return int(gemmWorkerOverride.Swap(int32(n)))
}

// GemmWorkers returns the effective worker count: the override if set,
// otherwise GOMAXPROCS (clamped to the same 256 ceiling as SetGemmWorkers).
func GemmWorkers() int {
	v := int(gemmWorkerOverride.Load())
	if v <= 0 {
		v = runtime.GOMAXPROCS(0)
	}
	if v > gemmMaxWorkers {
		v = gemmMaxWorkers
	}
	return v
}

// gemmKCFor autotunes the k-blocking depth for an n-column multiply: the
// streamed B panel (kc × n float32) targets half the per-core L2 budget so
// it stays resident while a band of C rows streams over it. Narrow outputs
// get deeper panels, wide ones shallower, clamped to [64, 1024]. Blocking
// depth never changes results — each element's k-summation stays in
// ascending order across panel boundaries.
func gemmKCFor(n int) int {
	kc := gemmL2Bytes / 2 / 4 / n
	if kc < gemmKCMin {
		kc = gemmKCMin
	}
	if kc > gemmKCMax {
		kc = gemmKCMax
	}
	return kc
}

// gemmPool is the shared persistent worker pool all GEMM dispatches hand
// chunks to. It starts lazily on the first parallel kernel and grows on
// demand up to gemmMaxPoolWorkers when GOMAXPROCS (or the override) rises —
// workers are never torn down. Tasks that cannot be enqueued without
// blocking (queue saturated by nested parallelism, e.g. concurrent DQL
// candidates each running GEMMs) fall back to fresh goroutines so dispatch
// never deadlocks.
var gemmPool struct {
	once    sync.Once
	mu      sync.Mutex // serializes growth
	started atomic.Int32
	tasks   chan func()
}

// gemmPoolEnsure grows the pool to at least `want` workers (capped at
// gemmMaxPoolWorkers).
func gemmPoolEnsure(want int) {
	if want > gemmMaxPoolWorkers {
		want = gemmMaxPoolWorkers
	}
	if int(gemmPool.started.Load()) >= want {
		return
	}
	gemmPool.once.Do(func() { gemmPool.tasks = make(chan func(), gemmMaxPoolWorkers) })
	gemmPool.mu.Lock()
	for int(gemmPool.started.Load()) < want {
		gemmPool.started.Add(1)
		go func() {
			for f := range gemmPool.tasks {
				f()
			}
		}()
	}
	gemmPool.mu.Unlock()
	gGemmPoolWorkers.Set(int64(gemmPool.started.Load()))
}

// runChunks executes body(0..chunks-1) across the caller plus workers-1
// helpers, with chunk indices handed out by an atomic claim counter — the
// work-stealing queue. Helpers come from the persistent pool when its queue
// has room and are spawned fresh otherwise.
func runChunks(chunks, workers int, body func(chunk int)) {
	gemmPoolEnsure(workers - 1)
	var (
		next    atomic.Int64
		stolen  atomic.Int64
		spawned int64
		wg      sync.WaitGroup
	)
	// fair is the even-split share; anything a participant claims beyond it
	// was stolen from a slower participant.
	fair := (chunks + workers - 1) / workers
	run := func() {
		defer wg.Done()
		claimed := 0
		for {
			i := int(next.Add(1)) - 1
			if i >= chunks {
				break
			}
			body(i)
			claimed++
		}
		if claimed > fair {
			stolen.Add(int64(claimed - fair))
		}
	}
	wg.Add(workers)
	for w := 0; w < workers-1; w++ {
		select {
		case gemmPool.tasks <- run:
		default:
			spawned++
			go run()
		}
	}
	run() // the caller participates as the last worker
	wg.Wait()
	mGemmDispatchParallel.Inc()
	mGemmChunks.Add(int64(chunks))
	if s := stolen.Load(); s > 0 {
		mGemmChunksStolen.Add(s)
	}
	if spawned > 0 {
		mGemmSpawnFallback.Add(spawned)
	}
}

// chunkRows picks the work-stealing granularity: rows per chunk such that a
// chunk carries at least gemmChunkFlops of work, bounded below so no more
// than workers*gemmChunksPerWorker chunks exist.
func chunkRows(m, n, k, workers int) int {
	rowFlops := n * k
	rows := (gemmChunkFlops + rowFlops - 1) / rowFlops
	if maxChunks := workers * gemmChunksPerWorker; maxChunks > 0 {
		if minRows := (m + maxChunks - 1) / maxChunks; rows < minRows {
			rows = minRows
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// dispatchRows cuts rows [0, m) into claim-counter chunks and runs them on
// the shared pool when the multiply is large enough to amortize dispatch.
func dispatchRows(m, n, k int, body func(i0, i1 int)) {
	workers := GemmWorkers()
	if workers <= 1 || m == 1 || m*n*k < gemmParallelMin {
		mGemmDispatchInline.Inc()
		body(0, m)
		return
	}
	rows := chunkRows(m, n, k, workers)
	chunks := (m + rows - 1) / rows
	if workers > chunks {
		workers = chunks
	}
	if workers <= 1 {
		mGemmDispatchInline.Inc()
		body(0, m)
		return
	}
	runChunks(chunks, workers, func(chunk int) {
		i0 := chunk * rows
		i1 := i0 + rows
		if i1 > m {
			i1 = m
		}
		body(i0, i1)
	})
}

// AddScaled computes dst[i] += alpha * x[i] (axpy). It panics if the slices
// differ in length.
func AddScaled(dst, x []float32, alpha float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: AddScaled length %d != %d", len(dst), len(x)))
	}
	for i, v := range x {
		dst[i] += alpha * v
	}
}

// zeroRows clears rows [0, m) of c (row length n, stride ldc).
func zeroRows(m, n int, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		row := c[i*ldc : i*ldc+n]
		for j := range row {
			row[j] = 0
		}
	}
}

// GemmStrided computes C += A·B (acc=true) or C = A·B (acc=false) on raw
// row-major storage: A is m×k with row stride lda, B is k×n with stride ldb,
// C is m×n with stride ldc. Strides let callers address submatrix views,
// e.g. a weight matrix whose trailing bias column is excluded (lda = k+1).
func GemmStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	kc := gemmKCFor(n)
	dispatchRows(m, n, k, func(i0, i1 int) {
		gemmBandN(i0, i1, n, k, kc, a, lda, b, ldb, c, ldc)
	})
}

// packPool recycles the scratch panels GemmTNStrided packs Aᵀ into, so
// per-example backward passes do not allocate.
var packPool = sync.Pool{New: func() any { return new([]float32) }}

// GemmTNStrided computes C += Aᵀ·B (acc=true) or C = Aᵀ·B: A is k×m with
// stride lda (so Aᵀ is m×k), B is k×n with stride ldb, C is m×n. When the
// multiply is large enough to amortize the copy, A is packed into a
// contiguous m×k panel first so the inner kernel streams unit-stride
// memory; packing is pure data movement and does not change the summation
// order.
func GemmTNStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	kc := gemmKCFor(n)
	if n >= 4 && m*n*k >= 4*m*k { // packing cost m*k is negligible vs m*n*k
		bufp := packPool.Get().(*[]float32)
		buf := *bufp
		if cap(buf) < m*k {
			buf = make([]float32, m*k)
		}
		buf = buf[:m*k]
		transposeBlocked(k, m, a, lda, buf, k)
		dispatchRows(m, n, k, func(i0, i1 int) {
			gemmBandN(i0, i1, n, k, kc, buf, k, b, ldb, c, ldc)
		})
		*bufp = buf
		packPool.Put(bufp)
		return
	}
	dispatchRows(m, n, k, func(i0, i1 int) {
		gemmBandTN(i0, i1, n, k, kc, a, lda, b, ldb, c, ldc)
	})
}

// GemmNTStrided computes C += A·Bᵀ (acc=true) or C = A·Bᵀ: A is m×k with
// stride lda, B is n×k with stride ldb (so Bᵀ is k×n), C is m×n. Each output
// element is a dot product of two contiguous rows.
func GemmNTStrided(m, n, k int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, acc bool) {
	if m <= 0 || n <= 0 {
		return
	}
	if !acc {
		zeroRows(m, n, c, ldc)
	}
	if k <= 0 {
		return
	}
	dispatchRows(m, n, k, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for j := 0; j < n; j++ {
				brow := b[j*ldb : j*ldb+k]
				var s float32
				for t, av := range arow {
					s += av * brow[t]
				}
				crow[j] += s
			}
		}
	})
}

// gemmBandN is the serial N/N inner kernel over C rows [i0, i1): k-blocked
// into kc-deep panels with two-row register tiling, so each panel of B is
// streamed once for two output rows.
func gemmBandN(i0, i1, n, k, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	if n == 1 {
		// Matrix-vector: each output element is one running dot, accumulated
		// in a register in the same order as the general path.
		for i := i0; i < i1; i++ {
			arow := a[i*lda : i*lda+k]
			s := c[i*ldc]
			if ldb == 1 {
				x := b[:k]
				for t, av := range arow {
					s += av * x[t]
				}
			} else {
				for t, av := range arow {
					s += av * b[t*ldb]
				}
			}
			c[i*ldc] = s
		}
		return
	}
	for kb := 0; kb < k; kb += kc {
		kEnd := kb + kc
		if kEnd > k {
			kEnd = k
		}
		i := i0
		for ; i+1 < i1; i += 2 {
			arow0 := a[i*lda : i*lda+k]
			arow1 := a[(i+1)*lda : (i+1)*lda+k]
			crow0 := c[i*ldc : i*ldc+n]
			crow1 := c[(i+1)*ldc : (i+1)*ldc+n]
			for t := kb; t < kEnd; t++ {
				a0, a1 := arow0[t], arow1[t]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow0[j] += a0 * bv
					crow1[j] += a1 * bv
				}
			}
		}
		if i < i1 {
			arow := a[i*lda : i*lda+k]
			crow := c[i*ldc : i*ldc+n]
			for t := kb; t < kEnd; t++ {
				av := arow[t]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// gemmBandTN is gemmBandN with A read transposed (A is k×m, element (t, i)
// at a[t*lda+i]).
func gemmBandTN(i0, i1, n, k, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int) {
	for kb := 0; kb < k; kb += kc {
		kEnd := kb + kc
		if kEnd > k {
			kEnd = k
		}
		i := i0
		for ; i+1 < i1; i += 2 {
			crow0 := c[i*ldc : i*ldc+n]
			crow1 := c[(i+1)*ldc : (i+1)*ldc+n]
			for t := kb; t < kEnd; t++ {
				a0, a1 := a[t*lda+i], a[t*lda+i+1]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow0[j] += a0 * bv
					crow1[j] += a1 * bv
				}
			}
		}
		if i < i1 {
			crow := c[i*ldc : i*ldc+n]
			for t := kb; t < kEnd; t++ {
				av := a[t*lda+i]
				brow := b[t*ldb : t*ldb+n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	}
}

// Gemm computes dst = a·b. dst must be preallocated with shape
// a.Rows()×b.Cols() and must not alias a or b.
func Gemm(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("tensor: gemm %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("tensor: gemm dst %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	GemmStrided(a.rows, b.cols, a.cols, a.data, a.cols, b.data, b.cols, dst.data, dst.cols, false)
	return nil
}

// GemmAcc computes dst += a·b with the same shape rules as Gemm.
func GemmAcc(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("tensor: gemm %dx%d by %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("tensor: gemm dst %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrShape)
	}
	GemmStrided(a.rows, b.cols, a.cols, a.data, a.cols, b.data, b.cols, dst.data, dst.cols, true)
	return nil
}
