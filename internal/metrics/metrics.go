// Package metrics implements the model-stability measures from Section 2.1
// of the paper: predictive churn between model pairs, L2 distance between
// normalized trained weight vectors, standard deviation of top-line and
// dis-aggregated accuracy, per-class accuracy, and sub-group
// accuracy / false-positive-rate / false-negative-rate statistics.
package metrics

import (
	"fmt"
	"math"
)

// Churn returns the fraction of examples on which two prediction vectors
// disagree (Milani Fard et al. 2016, eq. 2 in the paper).
func Churn(a, b []int) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: churn over mismatched predictions: %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		return 0
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return float64(diff) / float64(len(a))
}

// PairwiseMeanChurn averages Churn over all unordered pairs of runs.
func PairwiseMeanChurn(preds [][]int) float64 {
	if len(preds) < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(preds); i++ {
		for j := i + 1; j < len(preds); j++ {
			sum += Churn(preds[i], preds[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// L2Normalized returns ‖a/‖a‖ − b/‖b‖‖₂ — the L2 distance between the two
// weight vectors after normalizing each to unit length, as the paper does
// for a consistent scale across experiments.
func L2Normalized(a, b []float32) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: weight vectors differ in length: %d vs %d", len(a), len(b)))
	}
	na, nb := norm(a), norm(b)
	if na == 0 || nb == 0 {
		panic("metrics: zero-norm weight vector")
	}
	var sum float64
	for i := range a {
		d := float64(a[i])/na - float64(b[i])/nb
		sum += float64(d * d)
	}
	return math.Sqrt(sum)
}

func norm(v []float32) float64 {
	var s float64
	for _, x := range v {
		s += float64(float64(x) * float64(x))
	}
	return math.Sqrt(s)
}

// PairwiseMeanL2 averages L2Normalized over all unordered pairs.
func PairwiseMeanL2(weights [][]float32) float64 {
	if len(weights) < 2 {
		return 0
	}
	var sum float64
	pairs := 0
	for i := 0; i < len(weights); i++ {
		for j := i + 1; j < len(weights); j++ {
			sum += L2Normalized(weights[i], weights[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}

// Accuracy returns the fraction of predictions equal to labels.
func Accuracy(preds, labels []int) float64 {
	if len(preds) != len(labels) {
		panic(fmt.Sprintf("metrics: %d predictions for %d labels", len(preds), len(labels)))
	}
	if len(preds) == 0 {
		return 0
	}
	c := 0
	for i := range preds {
		if preds[i] == labels[i] {
			c++
		}
	}
	return float64(c) / float64(len(preds))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	// Rounded explicitly: with a constant length the division becomes a
	// reciprocal multiply, which must not fuse into a caller's subtraction.
	return float64(s / float64(len(xs)))
}

// StdDev returns the population standard deviation (the paper reports
// spread over a fixed set of replicas, not a sample estimate).
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		d := v - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)))
}

// PerClassAccuracy returns each class's accuracy over the examples whose
// label is that class. Classes absent from labels get NaN.
func PerClassAccuracy(preds, labels []int, classes int) []float64 {
	correct := make([]int, classes)
	total := make([]int, classes)
	for i := range labels {
		total[labels[i]]++
		if preds[i] == labels[i] {
			correct[labels[i]]++
		}
	}
	out := make([]float64, classes)
	for k := range out {
		if total[k] == 0 {
			out[k] = math.NaN()
			continue
		}
		out[k] = float64(correct[k]) / float64(total[k])
	}
	return out
}

// BinaryRates summarizes a binary classifier's error profile on a subset.
type BinaryRates struct {
	Accuracy float64
	FPR      float64 // false positives / negatives
	FNR      float64 // false negatives / positives
	N        int
}

// BinaryRatesOn computes accuracy/FPR/FNR over the examples selected by
// include (nil means all). Labels and predictions are in {0,1}. FPR and FNR
// are NaN when the subset has no negatives or positives respectively.
func BinaryRatesOn(preds, labels []int, include func(i int) bool) BinaryRates {
	var tp, tn, fp, fn int
	for i := range labels {
		if include != nil && !include(i) {
			continue
		}
		switch {
		case labels[i] == 1 && preds[i] == 1:
			tp++
		case labels[i] == 1 && preds[i] == 0:
			fn++
		case labels[i] == 0 && preds[i] == 1:
			fp++
		default:
			tn++
		}
	}
	r := BinaryRates{N: tp + tn + fp + fn}
	if r.N > 0 {
		r.Accuracy = float64(tp+tn) / float64(r.N)
	}
	if fp+tn > 0 {
		r.FPR = float64(fp) / float64(fp+tn)
	} else {
		r.FPR = math.NaN()
	}
	if fn+tp > 0 {
		r.FNR = float64(fn) / float64(fn+tp)
	} else {
		r.FNR = math.NaN()
	}
	return r
}
