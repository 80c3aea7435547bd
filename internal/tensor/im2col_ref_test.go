package tensor

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// Per-element references for the conv data-movement kernels, computed
// straight from the index formula: column matrix element (r, j) with
// r = (c*KH + kh)*KW + kw and j = (n*OutH + oh)*OutW + ow holds input
// (n, c, oh*Stride+kh-Pad, ow*Stride+kw-Pad), or +0 where that lies in the
// padding. The production kernels walk runs and windows instead; these
// references share none of that code, so the tests below are not the
// kernels checked against themselves.

// refColIndex returns the flat input index that column-matrix element
// (r, j) copies, or -1 for a padding zero.
func refColIndex(g ConvGeom, r, j int) int {
	kw := r % g.KW
	kh := r / g.KW % g.KH
	c := r / (g.KW * g.KH)
	ow := j % g.OutW()
	oh := j / g.OutW() % g.OutH()
	n := j / (g.OutW() * g.OutH())
	ih := oh*g.Stride + kh - g.Pad
	iw := ow*g.Stride + kw - g.Pad
	if ih < 0 || ih >= g.InH || iw < 0 || iw >= g.InW {
		return -1
	}
	return ((n*g.InC+c)*g.InH+ih)*g.InW + iw
}

func refColValue(in []float32, g ConvGeom, r, j int) float32 {
	if i := refColIndex(g, r, j); i >= 0 {
		return in[i]
	}
	return 0
}

// refCol2Im scatters col into dst one element at a time, rows in order
// (nil = ascending), columns ascending.
func refCol2Im(col, dst []float32, g ConvGeom, order []int) {
	rows, cols := g.ColRows(), g.ColCols()
	for ri := 0; ri < rows; ri++ {
		r := ri
		if order != nil {
			r = order[ri]
		}
		for j := 0; j < cols; j++ {
			if i := refColIndex(g, r, j); i >= 0 {
				dst[i] += col[r*cols+j]
			}
		}
	}
}

// randRefGeom draws a small conv geometry: kernel 1–4 per axis, stride
// 1–3, pad 0–2 (pad ≥ kernel−1 included), and input sizes that often give
// an output width or height of 1.
func randRefGeom(s *rng.Stream) ConvGeom {
	for {
		g := ConvGeom{
			Batch: 1 + s.Intn(3), InC: 1 + s.Intn(3), OutC: 1,
			KH: 1 + s.Intn(4), KW: 1 + s.Intn(4),
			Stride: 1 + s.Intn(3), Pad: s.Intn(3),
			InH: 1 + s.Intn(9), InW: 1 + s.Intn(9),
		}
		if g.InH+2*g.Pad >= g.KH && g.InW+2*g.Pad >= g.KW {
			return g
		}
	}
}

// refGeoms returns fixed edge-case geometries followed by random ones.
func refGeoms(seed uint64, random int) []ConvGeom {
	gs := []ConvGeom{
		{Batch: 2, InC: 3, InH: 8, InW: 8, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}, // SmallCNN conv1
		{Batch: 3, InC: 2, InH: 2, InW: 2, OutC: 1, KH: 3, KW: 3, Stride: 1, Pad: 1}, // 2×2, every tap an edge
		{Batch: 2, InC: 2, InH: 8, InW: 8, OutC: 1, KH: 3, KW: 3, Stride: 2, Pad: 1}, // ResNet-18 stride 2
		{Batch: 2, InC: 2, InH: 8, InW: 8, OutC: 1, KH: 1, KW: 1, Stride: 2, Pad: 0}, // 1×1 projection
		{Batch: 2, InC: 1, InH: 3, InW: 1, OutC: 1, KH: 3, KW: 1, Stride: 1, Pad: 0}, // outW = 1, outH = 1
		{Batch: 2, InC: 2, InH: 5, InW: 2, OutC: 1, KH: 4, KW: 4, Stride: 3, Pad: 2}, // outW = 1, pad ≥ kernel−1 on W
		{Batch: 1, InC: 2, InH: 1, InW: 1, OutC: 1, KH: 2, KW: 2, Stride: 1, Pad: 2}, // pad > kernel−1: all-zero rows
		{Batch: 2, InC: 2, InH: 7, InW: 5, OutC: 1, KH: 2, KW: 3, Stride: 3, Pad: 2}, // rectangular kernel
		{Batch: 1, InC: 1, InH: 9, InW: 9, OutC: 1, KH: 4, KW: 4, Stride: 1, Pad: 0}, // no padding
		{Batch: 2, InC: 3, InH: 4, InW: 6, OutC: 1, KH: 1, KW: 3, Stride: 1, Pad: 2}, // wider pad than kernel
	}
	s := rng.New(seed)
	for i := 0; i < random; i++ {
		gs = append(gs, randRefGeom(s))
	}
	return gs
}

// refImage fills an input with normals, with some exact +0 and −0 entries
// so copies must preserve the sign of zero.
func refImage(g ConvGeom, s *rng.Stream) []float32 {
	x := make([]float32, g.Batch*g.InC*g.InH*g.InW)
	for i := range x {
		switch s.Intn(10) {
		case 0:
			x[i] = float32(math.Copysign(0, -1))
		case 1:
			x[i] = 0
		default:
			x[i] = float32(s.Norm())
		}
	}
	return x
}

// refPanelBounds draws [lo, hi) inside [0, n). Every fourth draw is the
// whole range; the rest start and end anywhere, mid-row included.
func refPanelBounds(s *rng.Stream, n int) (lo, hi int) {
	if s.Intn(4) == 0 {
		return 0, n
	}
	lo = s.Intn(n)
	return lo, lo + 1 + s.Intn(n-lo)
}

// poison is a NaN payload no kernel produces: any element a kernel fails
// to write keeps it and fails the bit comparison.
var poison = math.Float32frombits(0x7fc0dead)

func poisoned(n int) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = poison
	}
	return d
}

// TestIm2ColPanelMatchesReference checks every element of random
// Im2ColPanel blocks, bit for bit, against the index formula.
func TestIm2ColPanelMatchesReference(t *testing.T) {
	s := rng.New(7)
	for gi, g := range refGeoms(11, 200) {
		xd := refImage(g, s)
		x := FromSlice(xd, g.Batch, g.InC, g.InH, g.InW)
		rows, cols := g.ColRows(), g.ColCols()
		for trial := 0; trial < 12; trial++ {
			rLo, rHi := refPanelBounds(s, rows)
			jLo, jHi := refPanelBounds(s, cols)
			w := jHi - jLo
			dst := poisoned((rHi - rLo) * w)
			Im2ColPanel(x, g, rLo, rHi, jLo, jHi, dst)
			for r := rLo; r < rHi; r++ {
				for j := jLo; j < jHi; j++ {
					got, want := dst[(r-rLo)*w+j-jLo], refColValue(xd, g, r, j)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("geom %d %+v panel r=[%d,%d) j=[%d,%d): (%d,%d) = %v (%#x), want %v (%#x)",
							gi, g, rLo, rHi, jLo, jHi, r, j, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestIm2ColPanelTMatchesReference does the same for the transposed
// blocks the backward-weights GEMM packs.
func TestIm2ColPanelTMatchesReference(t *testing.T) {
	s := rng.New(8)
	for gi, g := range refGeoms(12, 200) {
		xd := refImage(g, s)
		x := FromSlice(xd, g.Batch, g.InC, g.InH, g.InW)
		rows, cols := g.ColRows(), g.ColCols()
		for trial := 0; trial < 12; trial++ {
			jLo, jHi := refPanelBounds(s, cols)
			rLo, rHi := refPanelBounds(s, rows)
			w := rHi - rLo
			dst := poisoned((jHi - jLo) * w)
			Im2ColPanelT(x, g, jLo, jHi, rLo, rHi, dst)
			for j := jLo; j < jHi; j++ {
				for r := rLo; r < rHi; r++ {
					got, want := dst[(j-jLo)*w+r-rLo], refColValue(xd, g, r, j)
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("geom %d %+v panelT j=[%d,%d) r=[%d,%d): (%d,%d) = %v (%#x), want %v (%#x)",
							gi, g, jLo, jHi, rLo, rHi, j, r, got, math.Float32bits(got), want, math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestCol2ImAccumMatchesReference scatters non-exact values onto a
// non-zero destination, so any change in the per-element add sequence
// moves bits, with ascending (nil) and permuted row orders.
func TestCol2ImAccumMatchesReference(t *testing.T) {
	s := rng.New(9)
	for gi, g := range refGeoms(13, 200) {
		rows, cols := g.ColRows(), g.ColCols()
		col := New(rows, cols)
		cd := col.Data()
		for i := range cd {
			cd[i] = float32(s.Norm())
		}
		base := refImage(g, s)
		for trial, order := range [][]int{nil, s.Perm(rows), s.Perm(rows)} {
			want := append([]float32(nil), base...)
			refCol2Im(cd, want, g, order)
			got := FromSlice(append([]float32(nil), base...), g.Batch, g.InC, g.InH, g.InW)
			Col2ImAccum(col, g, got, order)
			for i, v := range got.Data() {
				if math.Float32bits(v) != math.Float32bits(want[i]) {
					t.Fatalf("geom %d %+v order %d: dst[%d] = %v (%#x), want %v (%#x)",
						gi, g, trial, i, v, math.Float32bits(v), want[i], math.Float32bits(want[i]))
				}
			}
		}
	}
}
