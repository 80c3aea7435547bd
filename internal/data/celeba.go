package data

import (
	"repro/internal/rng"
	"repro/internal/tensor"
)

// CelebA-like attribute fractions, derived from the paper's Table 3 counts
// (162 770 training images): P(Male) = 68261/162770, P(Old) = 35982/162770,
// and per-cell positive rates chosen so the marginal positive rates match
// the table — Male ≈ 2.0 %, Female ≈ 24.2 %, Young ≈ 16.0 %, Old ≈ 11.2 %.
const (
	celebAMaleFrac = 0.4194
	celebAOldFrac  = 0.2211

	posRateFemaleYoung = 0.258
	posRateFemaleOld   = 0.186
	posRateMaleYoung   = 0.024
	posRateMaleOld     = 0.008
)

// CelebALike generates the attribute dataset standing in for CelebA. Each
// example has two protected attributes (Male/Female, Young/Old) and one
// binary target whose positive rate per attribute cell matches the paper's
// Table 3 imbalance: positives are plentiful among young women and rare
// among men (0.8 % of the dataset) and old people (2.5 %). Cell counts are
// exact (not sampled), so even small scales contain at least one positive
// per cell and the Table 3 fractions reproduce exactly.
func CelebALike(s Scale) *Dataset {
	nTrain := s.pick(800, 2400, 8000)
	nTest := s.pick(400, 1000, 4000)
	world := rng.New(worldSeed + 5000)
	pat := newCelebAPatterns(world.Split("patterns"))
	return &Dataset{
		Name: "celebalike", Classes: 2, C: 3, H: 8, W: 8,
		Train: celebASplit(world.Split("train"), pat, nTrain),
		Test:  celebASplit(world.Split("test"), pat, nTest),
	}
}

// celebAPatterns holds the additive image components for each attribute.
type celebAPatterns struct {
	base, male, old, pos []float32
}

const celebAC, celebAH, celebAW = 3, 8, 8

func newCelebAPatterns(s *rng.Stream) *celebAPatterns {
	mk := func(label string, amp float64) []float32 {
		cfg := SynthConfig{C: celebAC, H: celebAH, W: celebAW, Classes: 1}
		p := makePrototypes(s.Split(label), cfg)[0].img
		for i := range p {
			p[i] *= float32(amp)
		}
		return p
	}
	return &celebAPatterns{
		base: mk("base", 1.0),
		male: mk("male", 0.8),
		old:  mk("old", 0.8),
		// The target signal is present but weak, leaving residual error
		// concentrated where positives are scarce.
		pos: mk("pos", 0.28),
	}
}

// celebACell describes one attribute cell and its exact example counts.
type celebACell struct {
	male, old bool
	frac      float64 // fraction of the dataset in this cell
	posRate   float64
}

func celebACells() []celebACell {
	fy := (1 - celebAMaleFrac) * (1 - celebAOldFrac)
	fo := (1 - celebAMaleFrac) * celebAOldFrac
	my := celebAMaleFrac * (1 - celebAOldFrac)
	mo := celebAMaleFrac * celebAOldFrac
	return []celebACell{
		{male: false, old: false, frac: fy, posRate: posRateFemaleYoung},
		{male: false, old: true, frac: fo, posRate: posRateFemaleOld},
		{male: true, old: false, frac: my, posRate: posRateMaleYoung},
		{male: true, old: true, frac: mo, posRate: posRateMaleOld},
	}
}

func celebASplit(s *rng.Stream, pat *celebAPatterns, n int) *Split {
	chw := celebAC * celebAH * celebAW
	var xs []float32
	var ys []int
	var males, olds []bool

	for ci, cell := range celebACells() {
		cellN := int(float64(float64(n)*cell.frac) + 0.5)
		if cellN < 2 {
			cellN = 2
		}
		pos := int(float64(float64(cellN)*cell.posRate) + 0.5)
		if pos < 1 {
			pos = 1
		}
		cs := s.SplitIndex(ci)
		for i := 0; i < cellN; i++ {
			label := 0
			if i < pos {
				label = 1
			}
			img := make([]float32, chw)
			renderCelebA(cs, pat, cell.male, cell.old, label == 1, img)
			xs = append(xs, img...)
			ys = append(ys, label)
			males = append(males, cell.male)
			olds = append(olds, cell.old)
		}
	}
	// Interleave cells deterministically so batches are mixed even before
	// the training loader shuffles.
	perm := rng.New(worldSeed + uint64(n)).Perm(len(ys))
	x := tensor.New(len(ys), celebAC, celebAH, celebAW)
	y := make([]int, len(ys))
	male := make([]bool, len(ys))
	old := make([]bool, len(ys))
	for dst, src := range perm {
		copy(x.Data()[dst*chw:(dst+1)*chw], xs[src*chw:(src+1)*chw])
		y[dst] = ys[src]
		male[dst] = males[src]
		old[dst] = olds[src]
	}
	return &Split{X: x, Y: y, Male: male, Old: old}
}

func renderCelebA(s *rng.Stream, pat *celebAPatterns, male, old, positive bool, dst []float32) {
	const noise = 0.9
	for i := range dst {
		v := pat.base[i]
		if male {
			v += pat.male[i]
		}
		if old {
			v += pat.old[i]
		}
		if positive {
			v += pat.pos[i]
		}
		dst[i] = v + float32(s.Norm()*noise)
	}
}

// SubgroupCounts tallies positive/negative counts per protected attribute,
// reproducing the paper's Table 3 for a split.
type SubgroupCounts struct {
	Group    string
	Positive int
	Negative int
}

// CountSubgroups reports Table 3-style counts for Male/Female/Young/Old.
func CountSubgroups(sp *Split) []SubgroupCounts {
	groups := []struct {
		name string
		in   func(i int) bool
	}{
		{"Male", func(i int) bool { return sp.Male[i] }},
		{"Female", func(i int) bool { return !sp.Male[i] }},
		{"Young", func(i int) bool { return !sp.Old[i] }},
		{"Old", func(i int) bool { return sp.Old[i] }},
	}
	out := make([]SubgroupCounts, len(groups))
	for gi, g := range groups {
		out[gi].Group = g.name
		for i := range sp.Y {
			if !g.in(i) {
				continue
			}
			if sp.Y[i] == 1 {
				out[gi].Positive++
			} else {
				out[gi].Negative++
			}
		}
	}
	return out
}
