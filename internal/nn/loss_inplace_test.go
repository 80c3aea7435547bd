package nn

import (
	"testing"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TestSoftmaxCEInPlaceMatchesReference pins that the in-place loss —
// gradient written over the logits storage — produces bit-identical losses
// and gradients to the reference form, including in Default mode where the
// final averaging draws scheduler entropy (both forms must draw the same
// sequence).
func TestSoftmaxCEInPlaceMatchesReference(t *testing.T) {
	for _, mode := range []device.Mode{device.Deterministic, device.Default} {
		t.Run(mode.String(), func(t *testing.T) {
			mkDev := func() *device.Device {
				var entropy *rng.Stream
				if mode == device.Default {
					entropy = rng.New(11)
				}
				return device.New(device.V100, mode, entropy)
			}
			devA, devB := mkDev(), mkDev()
			s := rng.New(3)
			for trial := 0; trial < 10; trial++ {
				n, k := 1+s.Intn(64), 2+s.Intn(20)
				logits := tensor.New(n, k)
				ld := logits.Data()
				labels := make([]int, n)
				for i := range ld {
					ld[i] = float32(float64(s.Float64()*20) - 10)
				}
				for i := range labels {
					labels[i] = s.Intn(k)
				}
				inPlace := logits.Clone()

				wantLoss, wantGrad := SoftmaxCrossEntropy(devA, logits, labels)
				gotLoss, gotGrad := SoftmaxCrossEntropyInPlace(devB, inPlace, labels)

				if gotGrad != inPlace {
					t.Fatal("in-place form must return the logits tensor itself")
				}
				if gotLoss != wantLoss {
					t.Fatalf("trial %d (n=%d k=%d): loss %v, want %v", trial, n, k, gotLoss, wantLoss)
				}
				if !tensor.Equal(gotGrad, wantGrad) {
					t.Fatalf("trial %d (n=%d k=%d): in-place gradient diverges from reference", trial, n, k)
				}
			}
		})
	}
}
