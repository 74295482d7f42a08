package dnn

import (
	"sync"

	"modelhub/internal/tensor"
)

// Scratch arena: the training hot path (im2col unrolls, layer activations,
// gradient volumes) used to allocate fresh buffers every example, and
// concurrent DQL enumeration sessions multiplied that churn into GC pressure.
// Layers and networks now hold persistent per-instance scratch buffers whose
// backing storage comes from a shared sync.Pool of power-of-two float arenas,
// and Network.ReleaseScratch returns a network's scratch to the shared pool
// when a worker retires it (e.g. a DQL candidate network after its grid cell
// finishes). Since a Network is single-goroutine by contract, per-instance
// buffers are per-worker scratch; the sync.Pool only mediates handoff between
// workers, so it sees no hot-path traffic.
//
// Determinism: pooling changes where bytes live, never what is computed —
// buffers that are scatter-add targets are zeroed on reuse, and every other
// kernel writes each output element, so a buffer's previous contents never
// reach a result (TestScratchPoolingBitIdentical trains on a dirty pool).

// Size-class pools: class i holds []float32 slices of capacity exactly
// 1<<(scratchMinBits+i). Requests round up to the next class; requests
// beyond the largest class fall through to plain make and are dropped on
// release rather than pooled.
const (
	scratchMinBits = 6  // 64 floats (256 B) — smaller requests round up here
	scratchMaxBits = 22 // 4M floats (16 MB) — largest pooled arena
)

var scratchClasses [scratchMaxBits - scratchMinBits + 1]sync.Pool

// scratchClass returns the pool index whose capacity fits n, or -1 if n
// exceeds the largest class.
func scratchClass(n int) int {
	size := 1 << scratchMinBits
	for i := range scratchClasses {
		if n <= size {
			return i
		}
		size <<= 1
	}
	return -1
}

// getFloats returns a length-n float32 slice, zeroed, backed by a pooled
// power-of-two arena when one fits.
func getFloats(n int) []float32 {
	cls := scratchClass(n)
	if cls < 0 {
		return make([]float32, n)
	}
	if v := scratchClasses[cls].Get(); v != nil {
		s := (*(v.(*[]float32)))[:n]
		for i := range s {
			s[i] = 0
		}
		return s
	}
	return make([]float32, n, 1<<(scratchMinBits+cls))
}

// putFloats returns a slice to its size-class pool. Slices whose capacity is
// not exactly a pooled class size (e.g. oversized requests getFloats served
// with plain make) are dropped for the GC — the pool never holds odd-sized
// arenas.
func putFloats(s []float32) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := scratchClass(c)
	if cls < 0 || 1<<(scratchMinBits+cls) != c {
		return
	}
	full := s[:c]
	scratchClasses[cls].Put(&full)
}

// scratchVolume returns a shape-s volume for a layer- or network-owned slot.
// The slot's buffer is reused across calls (re-acquired from the shared pool
// when the shape changes); zero=true clears it first — required for
// scatter-add targets, skipped for kernels that write every element.
func scratchVolume(slot **Volume, s Shape, zero bool) *Volume {
	v := *slot
	if v == nil || v.Shape != s {
		if v != nil {
			putFloats(v.Data)
		}
		v = &Volume{Shape: s, Data: getFloats(s.Size())}
		*slot = v
		return v
	}
	if zero {
		for i := range v.Data {
			v.Data[i] = 0
		}
	}
	return v
}

// scratchMapVolume is scratchVolume for per-node slots keyed by name (merge
// inputs, backward gradient accumulators).
func scratchMapVolume(slots map[string]*Volume, name string, s Shape, zero bool) *Volume {
	v := slots[name]
	if v == nil || v.Shape != s {
		if v != nil {
			putFloats(v.Data)
		}
		v = &Volume{Shape: s, Data: getFloats(s.Size())}
		slots[name] = v
		return v
	}
	if zero {
		for i := range v.Data {
			v.Data[i] = 0
		}
	}
	return v
}

// scratchMatrix returns a rows×cols matrix for a layer-owned slot, reused
// across calls and re-acquired from the shared pool when the shape changes.
func scratchMatrix(slot **tensor.Matrix, rows, cols int) *tensor.Matrix {
	if m := *slot; m != nil && m.Rows() == rows && m.Cols() == cols {
		return m
	}
	if *slot != nil {
		putFloats((*slot).Data())
	}
	m := tensor.MustFromSlice(rows, cols, getFloats(rows*cols))
	*slot = m
	return m
}

// releaseVolume returns a slot's buffer to the shared pool and clears it.
func releaseVolume(slot **Volume) {
	if *slot != nil {
		putFloats((*slot).Data)
		*slot = nil
	}
}

// releaseMatrix returns a slot's backing array to the shared pool and clears
// it.
func releaseMatrix(slot **tensor.Matrix) {
	if *slot != nil {
		putFloats((*slot).Data())
		*slot = nil
	}
}
