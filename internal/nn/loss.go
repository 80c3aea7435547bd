package nn

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes mean softmax cross-entropy over a batch of
// logits (N, K) against integer labels, returning the scalar loss and the
// gradient with respect to the logits. The final loss averaging runs
// through the device's reduction path. The logits are left intact and the
// gradient is freshly allocated — this is the reference form; the training
// loop uses SoftmaxCrossEntropyInPlace.
func SoftmaxCrossEntropy(dev *device.Device, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := checkLogits(logits, labels)
	dlogits := tensor.New(n, k)
	loss := softmaxCE(dev, logits.Data(), dlogits.Data(), n, k, labels)
	return loss, dlogits
}

// SoftmaxCrossEntropyInPlace is SoftmaxCrossEntropy writing the gradient
// over the logits tensor itself (returned), destroying the logits. The
// per-element arithmetic and the stream/reduction behaviour are identical
// to the reference form — softmaxCE reads each logit before overwriting it
// — so losses and gradients are bit-identical (pinned by TestSoftmaxCEInPlaceMatchesReference).
func SoftmaxCrossEntropyInPlace(dev *device.Device, logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor) {
	n, k := checkLogits(logits, labels)
	loss := softmaxCE(dev, logits.Data(), logits.Data(), n, k, labels)
	return loss, logits
}

func checkLogits(logits *tensor.Tensor, labels []int) (n, k int) {
	if logits.Rank() != 2 {
		panic(fmt.Sprintf("nn: logits must be (N, K), got %v", logits.Shape()))
	}
	n, k = logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		panic(fmt.Sprintf("nn: %d labels for batch of %d", len(labels), n))
	}
	return n, k
}

// softmaxCE is the shared kernel: gradient rows are written to gd, which
// may alias ld (the in-place form). Each ld element is read before the
// aliased gd element is written — the label logit is captured before the
// exp loop — so aliasing never changes a result bit.
func softmaxCE(dev *device.Device, ld, gd []float32, n, k int, labels []int) float64 {
	perExample := tensor.GetScratch(n)
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		row := ld[i*k : (i+1)*k]
		grow := gd[i*k : (i+1)*k]
		y := labels[i]
		if y < 0 || y >= k {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", y, k))
		}
		// Numerically stable softmax.
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		vy := row[y]
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			grow[j] = float32(e)
			sum += e
		}
		logZ := math.Log(sum)
		perExample[i] = float32(logZ - float64(vy-maxV))
		inv := float32(1 / sum)
		for j := range grow {
			grow[j] *= inv * invN
		}
		grow[y] -= invN
	}
	loss := float64(dev.ReduceSum(perExample)) / float64(n)
	tensor.PutScratch(perExample)
	return loss
}

// SigmoidBCE computes mean binary cross-entropy with logits for multi-label
// targets (N, K) in {0,1}, returning the scalar loss and dlogits. Used by
// the CelebA-like attribute task.
func SigmoidBCE(dev *device.Device, logits *tensor.Tensor, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	if !tensor.SameShape(logits, targets) {
		panic(fmt.Sprintf("nn: BCE shape mismatch %v vs %v", logits.Shape(), targets.Shape()))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	dlogits := tensor.New(n, k)
	perExample := make([]float32, n)
	ld, td, gd := logits.Data(), targets.Data(), dlogits.Data()
	invNK := 1 / float32(n*k)
	for i := 0; i < n; i++ {
		var rowLoss float64
		for j := 0; j < k; j++ {
			idx := i*k + j
			z, t := float64(ld[idx]), float64(td[idx])
			// loss = max(z,0) - z*t + log(1+exp(-|z|)) (stable form)
			rowLoss += math.Max(z, 0) - float64(z*t) + math.Log1p(math.Exp(-math.Abs(z)))
			s := 1 / (1 + math.Exp(-z))
			gd[idx] = float32(s-t) * invNK
		}
		perExample[i] = float32(rowLoss) / float32(k)
	}
	loss := float64(dev.ReduceSum(perExample)) / float64(n)
	return loss, dlogits
}

// Sigmoid applies the logistic function elementwise into a new tensor.
func Sigmoid(x *tensor.Tensor) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	for i, v := range d {
		d[i] = float32(1 / (1 + math.Exp(-float64(v))))
	}
	return out
}
