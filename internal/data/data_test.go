package data

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/tensor"
)

func TestSynthesizeDeterministic(t *testing.T) {
	a := CIFAR10Like(ScaleTest)
	b := CIFAR10Like(ScaleTest)
	if !tensor.Equal(a.Train.X, b.Train.X) {
		t.Fatal("dataset generation is nondeterministic")
	}
	for i := range a.Train.Y {
		if a.Train.Y[i] != b.Train.Y[i] {
			t.Fatal("labels differ between generations")
		}
	}
}

func TestCIFAR10LikeGeometry(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	if d.Classes != 10 || d.C != 3 {
		t.Fatalf("geometry: %s", d)
	}
	if d.Train.N() != 240 || d.Test.N() != 160 {
		t.Fatalf("test-scale sizes: train %d test %d", d.Train.N(), d.Test.N())
	}
	if got := d.Train.X.Shape(); got[0] != 240 || got[1] != 3 || got[2] != 8 || got[3] != 8 {
		t.Fatalf("train X shape %v", got)
	}
}

func TestClassBalance(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	counts := make([]int, d.Classes)
	for _, y := range d.Train.Y {
		counts[y]++
	}
	for k, c := range counts {
		if c != 24 {
			t.Fatalf("class %d has %d train examples, want 24", k, c)
		}
	}
}

func TestCIFAR100LikeHasHundredClasses(t *testing.T) {
	d := CIFAR100Like(ScaleTest)
	if d.Classes != 100 {
		t.Fatalf("classes = %d", d.Classes)
	}
	seen := map[int]bool{}
	for _, y := range d.Train.Y {
		seen[y] = true
	}
	if len(seen) != 100 {
		t.Fatalf("only %d distinct labels present", len(seen))
	}
}

func TestClassesAreSeparable(t *testing.T) {
	// A nearest-prototype classifier on the training means must beat chance
	// comfortably on the test set, or the datasets are unlearnable noise.
	d := CIFAR10Like(ScaleTest)
	chw := d.C * d.H * d.W
	means := make([][]float64, d.Classes)
	counts := make([]int, d.Classes)
	for k := range means {
		means[k] = make([]float64, chw)
	}
	xd := d.Train.X.Data()
	for i, y := range d.Train.Y {
		counts[y]++
		for j := 0; j < chw; j++ {
			means[y][j] += float64(xd[i*chw+j])
		}
	}
	for k := range means {
		for j := range means[k] {
			means[k][j] /= float64(counts[k])
		}
	}
	td := d.Test.X.Data()
	correct := 0
	for i, y := range d.Test.Y {
		best, bestDist := -1, math.Inf(1)
		for k := range means {
			var dist float64
			for j := 0; j < chw; j++ {
				diff := float64(td[i*chw+j]) - means[k][j]
				dist += float64(diff * diff)
			}
			if dist < bestDist {
				best, bestDist = k, dist
			}
		}
		if best == y {
			correct++
		}
	}
	acc := float64(correct) / float64(d.Test.N())
	if acc < 0.3 {
		t.Fatalf("nearest-prototype accuracy %.2f; dataset not learnable", acc)
	}
	if acc > 0.995 {
		t.Fatalf("nearest-prototype accuracy %.3f; dataset trivially separable, no residual error for churn", acc)
	}
}

func TestCelebACellCountsMatchTable3Shape(t *testing.T) {
	d := CelebALike(ScaleQuick)
	counts := CountSubgroups(d.Train)
	byName := map[string]SubgroupCounts{}
	total := 0
	for _, c := range counts {
		byName[c.Group] = c
	}
	total = byName["Male"].Positive + byName["Male"].Negative +
		byName["Female"].Positive + byName["Female"].Negative

	maleFrac := float64(byName["Male"].Positive+byName["Male"].Negative) / float64(total)
	if math.Abs(maleFrac-celebAMaleFrac) > 0.02 {
		t.Errorf("male fraction %.3f, want ~%.3f", maleFrac, celebAMaleFrac)
	}
	oldFrac := float64(byName["Old"].Positive+byName["Old"].Negative) / float64(total)
	if math.Abs(oldFrac-celebAOldFrac) > 0.02 {
		t.Errorf("old fraction %.3f, want ~%.3f", oldFrac, celebAOldFrac)
	}
	// The defining imbalance: male positives are rare (~2 % of males),
	// female positives common (~24 %).
	malePosRate := float64(byName["Male"].Positive) / float64(byName["Male"].Positive+byName["Male"].Negative)
	femalePosRate := float64(byName["Female"].Positive) / float64(byName["Female"].Positive+byName["Female"].Negative)
	if malePosRate > 0.05 {
		t.Errorf("male positive rate %.3f, want ~0.02", malePosRate)
	}
	if femalePosRate < 0.15 || femalePosRate > 0.35 {
		t.Errorf("female positive rate %.3f, want ~0.24", femalePosRate)
	}
}

func TestCelebAEveryCellHasPositives(t *testing.T) {
	d := CelebALike(ScaleTest)
	for _, sp := range []*Split{d.Train, d.Test} {
		cell := map[[2]bool][2]int{}
		for i, y := range sp.Y {
			key := [2]bool{sp.Male[i], sp.Old[i]}
			c := cell[key]
			c[y]++
			cell[key] = c
		}
		if len(cell) != 4 {
			t.Fatalf("expected 4 attribute cells, got %d", len(cell))
		}
		for key, c := range cell {
			if c[1] == 0 {
				t.Fatalf("cell male=%v old=%v has no positives", key[0], key[1])
			}
		}
	}
}

func TestCelebAAttributesAlignedWithImages(t *testing.T) {
	d := CelebALike(ScaleTest)
	if len(d.Train.Male) != d.Train.N() || len(d.Train.Old) != d.Train.N() {
		t.Fatal("attribute slices misaligned with examples")
	}
}

func TestLoaderCoversAllExamplesOnce(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	l := NewLoader(d, d.Train, 32, Augment{})
	batches := l.Batches(rng.New(1), rng.New(1))
	seen := map[int]int{}
	total := 0
	for _, b := range batches {
		total += len(b.Labels)
		for _, idx := range b.Indices {
			seen[idx]++
		}
	}
	if total != d.Train.N() {
		t.Fatalf("epoch covers %d examples, want %d", total, d.Train.N())
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("example %d appeared %d times", idx, n)
		}
	}
}

func TestLoaderShuffleDependsOnStream(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	l := NewLoader(d, d.Train, 64, Augment{})
	a := l.Batches(rng.New(1), rng.New(1))[0].Indices
	b := l.Batches(rng.New(1), rng.New(1))[0].Indices
	c := l.Batches(rng.New(2), rng.New(2))[0].Indices
	sameAB, sameAC := true, true
	for i := range a {
		if a[i] != b[i] {
			sameAB = false
		}
		if a[i] != c[i] {
			sameAC = false
		}
	}
	if !sameAB {
		t.Fatal("same stream seed gave different shuffles")
	}
	if sameAC {
		t.Fatal("different stream seeds gave identical shuffles")
	}
}

func TestLoaderNilStreamIsIdentityOrder(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	l := NewLoader(d, d.Test, 32, Augment{Shift: 1, Flip: true})
	batches := l.Batches(nil, nil)
	idx := 0
	for _, b := range batches {
		for bi, src := range b.Indices {
			if src != idx {
				t.Fatalf("nil-stream order not identity at %d", idx)
			}
			// And no augmentation applied: batch content equals the split.
			chw := d.C * d.H * d.W
			for j := 0; j < chw; j++ {
				if b.X.Data()[bi*chw+j] != d.Test.X.Data()[src*chw+j] {
					t.Fatal("nil-stream epoch mutated example content")
				}
			}
			idx++
		}
	}
}

func TestAugmentFlipIsInvolution(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	l := NewLoader(d, d.Train, 1, Augment{Flip: true})
	chw := d.C * d.H * d.W
	orig := make([]float32, chw)
	d.Train.Example(0, orig)
	img := append([]float32(nil), orig...)
	// Flip twice manually through the internal helper.
	flip := func(im []float32) {
		for c := 0; c < d.C; c++ {
			for y := 0; y < d.H; y++ {
				row := im[(c*d.H+y)*d.W : (c*d.H+y+1)*d.W]
				for x, xx := 0, d.W-1; x < xx; x, xx = x+1, xx-1 {
					row[x], row[xx] = row[xx], row[x]
				}
			}
		}
	}
	flip(img)
	flip(img)
	for i := range img {
		if img[i] != orig[i] {
			t.Fatal("double flip is not identity")
		}
	}
	_ = l
}

func TestAugmentShiftKeepsShape(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	l := NewLoader(d, d.Train, 16, Augment{Shift: 2, Flip: true})
	batches := l.Batches(rng.New(9), rng.New(9))
	for _, b := range batches {
		if b.X.Dim(1) != 3 || b.X.Dim(2) != 8 || b.X.Dim(3) != 8 {
			t.Fatalf("augmented batch shape %v", b.X.Shape())
		}
	}
}

func TestImageNetLikeScalesClassCount(t *testing.T) {
	if got := ImageNetLike(ScaleTest).Classes; got != 20 {
		t.Fatalf("test-scale ImageNetLike classes = %d", got)
	}
	if got := ImageNetLike(ScaleQuick).Classes; got != 50 {
		t.Fatalf("quick-scale ImageNetLike classes = %d", got)
	}
}

func TestSplitExampleCopies(t *testing.T) {
	d := CIFAR10Like(ScaleTest)
	chw := d.C * d.H * d.W
	buf := make([]float32, chw)
	d.Train.Example(3, buf)
	buf[0] += 100
	if d.Train.X.Data()[3*chw] == buf[0] {
		t.Fatal("Example must copy, not alias")
	}
}
