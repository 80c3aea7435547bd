package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution in NCHW layout.
type ConvGeom struct {
	Batch    int // N
	InC      int // input channels
	InH, InW int // input spatial size
	OutC     int // output channels
	KH, KW   int // kernel size
	Stride   int
	Pad      int
}

// OutH returns the output height.
func (g ConvGeom) OutH() int { return (g.InH+2*g.Pad-g.KH)/g.Stride + 1 }

// OutW returns the output width.
func (g ConvGeom) OutW() int { return (g.InW+2*g.Pad-g.KW)/g.Stride + 1 }

// ColRows returns the im2col matrix row count: InC*KH*KW.
func (g ConvGeom) ColRows() int { return g.InC * g.KH * g.KW }

// ColCols returns the im2col matrix column count: N*OutH*OutW.
func (g ConvGeom) ColCols() int { return g.Batch * g.OutH() * g.OutW() }

// Validate reports an error if the geometry is degenerate.
func (g ConvGeom) Validate() error {
	if g.Batch <= 0 || g.InC <= 0 || g.OutC <= 0 {
		return fmt.Errorf("tensor: conv geometry with non-positive counts: %+v", g)
	}
	if g.Stride <= 0 {
		return fmt.Errorf("tensor: conv stride must be positive, got %d", g.Stride)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("tensor: conv output empty for %+v", g)
	}
	return nil
}

// Im2Col expands input (N, C, H, W) into a (C*KH*KW, N*OutH*OutW) matrix so
// convolution becomes a single matmul: W(OutC, C*KH*KW) × col. Padding
// contributes zeros. The expansion itself involves no reductions, so it is
// deterministic regardless of device mode.
//
// The full expansion is a single maximal panel of Im2ColPanel, the
// tile-granular form the device's packed-panel GEMM fuses with operand
// packing (DESIGN.md §14); conv layers never materialize this matrix on
// the hot path. It serves the materialized GEMM that the device tests
// and benchmarks compare the fused path against. The kernels themselves
// are tested against a per-element index-formula reference
// (im2col_ref_test.go).
func Im2Col(in *Tensor, g ConvGeom, dst *Tensor) {
	Im2ColPanel(in, g, 0, g.ColRows(), 0, g.ColCols(), dst.Data())
}

// The three kernels below move data in runs rather than element by
// element. They compute each kernel position's output window once and
// advance (n, oh, ow) as counters, so no bounds test runs per element and
// no division per run. Each kernel hands one im2col row (or, transposed,
// one output position) to a function of its own, which keeps every loop
// nest's live state small enough that most loop counters stay in
// registers.

// smallImage is the output size OutH*OutW at or below which packing and
// the scatter walk one output position across all images instead of one
// image at a time: at 4×4 and 2×2 the per-image bookkeeping costs more
// than the image's few copies or adds (BenchmarkIm2ColPanel).
const smallImage = 16

// convTap is one kernel position (c, kh, kw), i.e. one row of the im2col
// matrix. Its taps read input inside the output window [ohLo,ohHi) ×
// [owLo,owHi) and padding zeros outside it. At output (n, oh, ow) inside
// the window the tap reads input index at + n*img + oh*Stride*InW +
// ow*Stride, with img = InC*InH*InW (at itself may be negative).
type convTap struct {
	ohLo, ohHi, owLo, owHi int
	at                     int
}

// tap returns the view of im2col row r.
func (g ConvGeom) tap(r int) convTap {
	kw := r % g.KW
	kh := r / g.KW % g.KH
	c := r / (g.KW * g.KH)
	t := convTap{at: c*g.InH*g.InW + (kh-g.Pad)*g.InW + kw - g.Pad}
	t.ohLo, t.ohHi = convWindow(kh, g.Pad, g.Stride, g.InH, g.OutH())
	t.owLo, t.owHi = convWindow(kw, g.Pad, g.Stride, g.InW, g.OutW())
	if t.owLo == t.owHi {
		t.ohHi = t.ohLo // no tap reads input
	}
	return t
}

// convWindow returns the output coordinates [lo, hi) ⊆ [0, out) at which
// kernel offset k reads inside an input axis of length in: those o with
// 0 ≤ o*stride + k - pad < in.
func convWindow(k, pad, stride, in, out int) (lo, hi int) {
	if d := pad - k; d > 0 {
		lo = (d + stride - 1) / stride
	}
	if d := in - 1 + pad - k; d >= 0 {
		hi = min(d/stride+1, out)
	}
	return min(lo, hi), hi
}

// Im2ColPanel writes the [rLo,rHi) × [jLo,jHi) sub-block of the im2col
// matrix into dst, row-major with row stride jHi-jLo. Rows index kernel
// positions (c, kh, kw); columns index output positions (n, oh, ow). The
// values are exactly the ones Im2Col would place at the same coordinates —
// pure copies of input elements (or padding zeros), so a GEMM that packs
// its B-operand panels through this function consumes bit-identical
// multiplicands without the full column matrix ever existing.
func Im2ColPanel(in *Tensor, g ConvGeom, rLo, rHi, jLo, jHi int, dst []float32) {
	w := jHi - jLo
	for r := rLo; r < rHi; r++ {
		t := g.tap(r)
		t.pack(dst[(r-rLo)*w:(r-rLo)*w+w], in.Data(), g, jLo)
	}
}

// pack writes columns [jLo, jLo+len(d)) of the tap's im2col row into d.
// Column j = n*hw + q holds output position q = (oh, ow) of image n.
func (t *convTap) pack(d, id []float32, g ConvGeom, jLo int) {
	if g.Stride == 1 && g.OutW() == g.InW && g.OutH()*g.OutW() > smallImage {
		t.packImages(d, id, g, jLo)
	} else {
		t.packPositions(d, id, g, jLo)
	}
}

// packImages is pack at stride 1 with input rows as wide as output rows
// (same padding): position q of image n reads input at + n*img + q at
// every in-window tap, so an image's window [vLo, vHi) is one copy,
// after which the pad columns inside it are zeroed.
func (t *convTap) packImages(d, id []float32, g ConvGeom, jLo int) {
	outW := g.OutW()
	hw, img := g.OutH()*outW, g.InC*g.InH*g.InW
	padCols := t.owLo > 0 || t.owHi < outW
	at := t.at + jLo/hw*img
	for o, p := 0, jLo%hw; o < len(d); o, p, at = o+hw-p, 0, at+img {
		seg := d[o:min(len(d), o+hw-p)]
		vLo := min(max(t.ohLo*outW+t.owLo-p, 0), len(seg))
		vHi := min(max((t.ohHi-1)*outW+t.owHi-p, vLo), len(seg))
		zeroFill(seg[:vLo])
		if vLo < vHi {
			copy(seg[vLo:vHi], id[at+p+vLo:])
		}
		zeroFill(seg[vHi:])
		for q := t.ohLo*outW - p; padCols && q < vHi; q += outW {
			a := min(max(q+t.owHi, vLo), vHi)
			zeroFill(seg[a:max(a, min(q+outW+t.owLo, vHi))])
		}
	}
}

// packPositions is pack position by position, for small images and
// strided convs: position q fills every hw-th column, for images
// [n0, n1) plus one more at either end where q lies below jLo's
// position p0 or jHi's position p1.
func (t *convTap) packPositions(d, id []float32, g ConvGeom, jLo int) {
	outW := g.OutW()
	hw, img := g.OutH()*outW, g.InC*g.InH*g.InW
	n0, p0 := jLo/hw, jLo%hw
	n1, p1 := (jLo+len(d))/hw, (jLo+len(d))%hw
	for q, oh, ow := 0, 0, 0; q < hw; q++ {
		nA, nB := n0, n1
		if q < p0 {
			nA++
		}
		if q < p1 {
			nB++
		}
		o := nA*hw + q - jLo
		if oh < t.ohLo || oh >= t.ohHi || ow < t.owLo || ow >= t.owHi {
			for ; nA < nB; nA, o = nA+1, o+hw {
				d[o] = 0
			}
		} else {
			for i := t.at + nA*img + (oh*g.InW+ow)*g.Stride; nA < nB; nA, o, i = nA+1, o+hw, i+img {
				d[o] = id[i]
			}
		}
		if ow++; ow == outW {
			ow = 0
			oh++
		}
	}
}

// Im2ColPanelT writes the [jLo,jHi) × [rLo,rHi) sub-block of the
// TRANSPOSED im2col matrix into dst, row-major with row stride rHi-rLo:
// rows index output positions j, columns index kernel positions r. This is
// the panel shape the backward-weights GEMM (dW = dy × colᵀ) packs, again
// without materializing either col or its transpose.
func Im2ColPanelT(in *Tensor, g ConvGeom, jLo, jHi, rLo, rHi int, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	w := rHi - rLo
	kk := g.KH * g.KW
	cols := tapColumns{rLo: rLo, c0: rLo / kk, t0: rLo % kk, c1: rHi / kk, t1: rHi % kk}
	n, oh, ow := jLo/(outH*outW), jLo/outW%outH, jLo%outW
	for j := jLo; j < jHi; j++ {
		cols.pack(dst[(j-jLo)*w:(j-jLo)*w+w], in.Data(), g, n, oh, ow)
		if ow++; ow == outW {
			ow = 0
			if oh++; oh == outH {
				oh = 0
				n++
			}
		}
	}
}

// tapColumns is the column range [rLo, rHi) of a transposed im2col
// panel. Column r = c*kk + t holds tap t = (kh, kw) of channel c, so tap
// t fills every kk-th column, for channels [c0, c1) plus one more at
// either end where t lies below rLo's tap t0 or rHi's tap t1.
type tapColumns struct {
	rLo, c0, t0, c1, t1 int
}

// pack writes the row of output position (n, oh, ow) into d, tap by tap.
func (tc *tapColumns) pack(d, id []float32, g ConvGeom, n, oh, ow int) {
	kk := g.KH * g.KW
	plane := g.InH * g.InW
	ih0, iw0 := oh*g.Stride-g.Pad, ow*g.Stride-g.Pad
	at := n*g.InC*plane + ih0*g.InW + iw0 // input index of tap (0, 0) of channel 0
	for t, kh, kw := 0, 0, 0; t < kk; t++ {
		cA, cB := tc.c0, tc.c1
		if t < tc.t0 {
			cA++
		}
		if t < tc.t1 {
			cB++
		}
		o := cA*kk + t - tc.rLo
		if ih, iw := ih0+kh, iw0+kw; ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
			for ; cA < cB; cA, o = cA+1, o+kk {
				d[o] = 0
			}
		} else {
			for i := at + cA*plane + kh*g.InW + kw; cA < cB; cA, o, i = cA+1, o+kk, i+plane {
				d[o] = id[i]
			}
		}
		if kw++; kw == g.KW {
			kw = 0
			kh++
		}
	}
}

// Col2ImAccum scatters a (C*KH*KW, N*OutH*OutW) column matrix back into an
// image tensor (N, C, H, W), accumulating overlapping contributions in a
// fixed sequential order. The device layer decides whether to perturb the
// accumulation ordering (simulating atomicAdd) before calling this.
//
// Within one column-matrix row every destination element receives at most
// one add (distinct oh map to distinct ih, distinct ow to distinct iw), so
// each element's add sequence is fixed by the row order alone, and the
// kernel may add a row's window in any order: one run per (n, oh), or
// position by position across images for small images.
func Col2ImAccum(col *Tensor, g ConvGeom, dst *Tensor, rowOrder []int) {
	cols := g.ColCols()
	for ri := 0; ri < g.ColRows(); ri++ {
		row := ri
		if rowOrder != nil {
			row = rowOrder[ri]
		}
		t := g.tap(row)
		t.scatter(dst.Data(), col.Data()[row*cols:row*cols+cols], g)
	}
}

// scatter adds the tap's column-matrix row crow into the image dd. A
// strided conv keeps the runs even on small images: its position walk
// measured slower, with the test-scale stride-2 shapes putting the adds
// of successive images 2 KiB apart.
func (t *convTap) scatter(dd, crow []float32, g ConvGeom) {
	if g.Stride == 1 && g.OutH()*g.OutW() <= smallImage {
		t.scatterPositions(dd, crow, g)
	} else {
		t.scatterRuns(dd, crow, g)
	}
}

// scatterRuns adds the window of each (n, oh) as one run, Stride apart.
// A full-width window at stride 1 and equal row pitch is one run per
// image.
func (t *convTap) scatterRuns(dd, crow []float32, g ConvGeom) {
	outW, s := g.OutW(), g.Stride
	hw, img := g.OutH()*outW, g.InC*g.InH*g.InW
	span, runs := t.owHi-t.owLo, t.ohHi-t.ohLo
	if s == 1 && span == outW && outW == g.InW {
		span, runs = span*runs, 1
	}
	at0 := t.at + (t.ohLo*g.InW+t.owLo)*s
	from0 := t.ohLo*outW + t.owLo
	for n := 0; n < g.Batch; n++ {
		at, from := at0+n*img, from0+n*hw
		for k := 0; k < runs; k, at, from = k+1, at+s*g.InW, from+outW {
			src := crow[from : from+span]
			if s == 1 {
				dst := dd[at : at+span]
				for i, v := range src {
					dst[i] += v
				}
			} else {
				for i, v := range src {
					dd[at+i*s] += v
				}
			}
		}
	}
}

// scatterPositions adds position by position: every in-window output
// position q adds column n*hw + q into each image n.
func (t *convTap) scatterPositions(dd, crow []float32, g ConvGeom) {
	outW := g.OutW()
	hw, img := g.OutH()*outW, g.InC*g.InH*g.InW
	for oh := t.ohLo; oh < t.ohHi; oh++ {
		for ow := t.owLo; ow < t.owHi; ow++ {
			i := t.at + (oh*g.InW+ow)*g.Stride
			for q := oh*outW + ow; q < len(crow); q, i = q+hw, i+img {
				dd[i] += crow[q]
			}
		}
	}
}

// zeroFill sets every element of d to +0.
func zeroFill(d []float32) {
	for i := 0; i < len(d); i++ {
		d[i] = 0
	}
}
