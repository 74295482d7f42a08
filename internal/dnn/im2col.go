package dnn

import "modelhub/internal/tensor"

// im2col unrolls in (C×H×W) into the row-major C·k·k × outH·outW matrix at
// the head of cdata: row (ic·k+ky)·k+kx, column oy·outW+ox holds
// in[ic, oy·stride+ky-pad, ox·stride+kx-pad], or 0 where that index falls in
// the padding. Every cell of the matrix is written, so a reused buffer needs
// no prior zeroing. The stride-1 common case copies
// contiguous input runs per output row.
func im2col(in *Volume, cdata []float32, k, stride, pad, outH, outW int) {
	h, w := in.Shape.H, in.Shape.W
	n := outH * outW
	row := 0
	for ic := 0; ic < in.Shape.C; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				dst := cdata[row*n : (row+1)*n]
				row++
				di := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						for ox := 0; ox < outW; ox++ {
							dst[di] = 0
							di++
						}
						continue
					}
					src := in.Data[chOff+iy*w : chOff+(iy+1)*w]
					if stride == 1 {
						ix0 := kx - pad // input x for ox = 0
						left, right := 0, outW
						if -ix0 > left {
							left = -ix0
						}
						if w-ix0 < right {
							right = w - ix0
						}
						for ox := 0; ox < left; ox++ {
							dst[di+ox] = 0
						}
						if right > left {
							copy(dst[di+left:di+right], src[ix0+left:ix0+right])
						}
						for ox := right; ox < outW; ox++ {
							dst[di+ox] = 0
						}
						di += outW
					} else {
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								dst[di] = 0
							} else {
								dst[di] = src[ix]
							}
							di++
						}
					}
				}
			}
		}
	}
}

// col2im scatter-adds cols (C·k·k × outH·outW) back into dIn, the adjoint of
// im2col: overlapping windows accumulate.
func col2im(cols *tensor.Matrix, dIn *Volume, k, stride, pad, outH, outW int) {
	h, w := dIn.Shape.H, dIn.Shape.W
	n := outH * outW
	cdata := cols.Data()
	row := 0
	for ic := 0; ic < dIn.Shape.C; ic++ {
		chOff := ic * h * w
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				src := cdata[row*n : (row+1)*n]
				row++
				si := 0
				for oy := 0; oy < outH; oy++ {
					iy := oy*stride + ky - pad
					if iy < 0 || iy >= h {
						si += outW
						continue
					}
					dst := dIn.Data[chOff+iy*w : chOff+(iy+1)*w]
					if stride == 1 {
						ix0 := kx - pad
						left, right := 0, outW
						if -ix0 > left {
							left = -ix0
						}
						if w-ix0 < right {
							right = w - ix0
						}
						if right > left {
							tensor.AddScaled(dst[ix0+left:ix0+right], src[si+left:si+right], 1)
						}
						si += outW
					} else {
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix >= 0 && ix < w {
								dst[ix] += src[si]
							}
							si++
						}
					}
				}
			}
		}
	}
}
