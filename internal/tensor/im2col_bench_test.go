package tensor

import (
	"testing"

	"repro/internal/rng"
)

// Panel tiling of the device's blocked GEMM (device.panelKC/panelNC) and
// the split-K chunk count of a V100 in Default mode, mirrored here so the
// benchmark packs exactly the panels a conv layer's GEMMs pack.
const (
	benchPanelKC = 128
	benchPanelNC = 512
	benchChunks  = 20
)

// benchConvGeoms are the test-scale conv shapes at batch 32: the three
// SmallCNN convs and ResNet-18's stride-1 and stride-2 3×3 convs.
var benchConvGeoms = []struct {
	name string
	g    ConvGeom
}{
	{"smallcnn-conv1", ConvGeom{Batch: 32, InC: 3, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	{"smallcnn-conv2", ConvGeom{Batch: 32, InC: 8, InH: 4, InW: 4, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	{"smallcnn-conv3", ConvGeom{Batch: 32, InC: 16, InH: 2, InW: 2, OutC: 16, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	{"resnet18-s1", ConvGeom{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 8, KH: 3, KW: 3, Stride: 1, Pad: 1}},
	{"resnet18-s2", ConvGeom{Batch: 32, InC: 8, InH: 8, InW: 8, OutC: 16, KH: 3, KW: 3, Stride: 2, Pad: 1}},
}

// packAllPanels calls pack on every panel the blocked GEMM packs for a
// k×n B operand split into chunks K-chunks: chunk → K block → N tile.
func packAllPanels(k, n, chunks int, pack func(kLo, kHi, jLo, jHi int)) {
	for c := 0; c < chunks; c++ {
		kLo, kHi := c*k/chunks, (c+1)*k/chunks
		for kb := kLo; kb < kHi; kb += benchPanelKC {
			for jb := 0; jb < n; jb += benchPanelNC {
				pack(kb, min(kb+benchPanelKC, kHi), jb, min(jb+benchPanelNC, n))
			}
		}
	}
}

// BenchmarkIm2ColPanel times the conv data-movement kernels alone. One
// op of fwd (Im2ColPanel, the forward GEMM's B panels) or T
// (Im2ColPanelT, the backward-weights GEMM's) packs every panel of one
// deterministic GEMM and one V100-default GEMM; one op of col2im runs the
// backward-data scatter once in ascending and once in permuted row order.
func BenchmarkIm2ColPanel(b *testing.B) {
	for _, bc := range benchConvGeoms {
		g := bc.g
		s := rng.New(1)
		x := New(g.Batch, g.InC, g.InH, g.InW)
		s.FillNorm(x.Data(), 0, 1)
		rows, cols := g.ColRows(), g.ColCols()
		panel := make([]float32, benchPanelKC*benchPanelNC)
		b.Run(bc.name+"/fwd", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, chunks := range []int{1, benchChunks} {
					packAllPanels(rows, cols, chunks, func(kLo, kHi, jLo, jHi int) {
						Im2ColPanel(x, g, kLo, kHi, jLo, jHi, panel)
					})
				}
			}
		})
		b.Run(bc.name+"/T", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, chunks := range []int{1, benchChunks} {
					packAllPanels(cols, rows, chunks, func(kLo, kHi, jLo, jHi int) {
						Im2ColPanelT(x, g, kLo, kHi, jLo, jHi, panel)
					})
				}
			}
		})
		b.Run(bc.name+"/col2im", func(b *testing.B) {
			col := New(rows, cols)
			s.FillNorm(col.Data(), 0, 1)
			dst := New(g.Batch, g.InC, g.InH, g.InW)
			perm := s.Perm(rows)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, order := range [][]int{nil, perm} {
					dst.Zero()
					Col2ImAccum(col, g, dst, order)
				}
			}
		})
	}
}
