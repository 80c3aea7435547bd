// Package opt implements the optimizers and learning-rate schedules used by
// the paper's training recipes: SGD with optional momentum, step-decay
// schedules (CIFAR and CelebA recipes) and warmup-plus-cosine decay (the
// ImageNet ResNet-50 recipe). Parameter updates are pure elementwise
// operations, so they are order-insensitive and run identically on every
// simulated device; all nondeterminism enters through the gradients.
package opt

import (
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Schedule maps an epoch index (0-based) to a learning rate.
type Schedule interface {
	// LR returns the learning rate for the given epoch.
	LR(epoch int) float64
	// String describes the schedule.
	String() string
}

// Constant is a fixed learning rate.
type Constant float64

// LR implements Schedule.
func (c Constant) LR(int) float64 { return float64(c) }

// String implements Schedule.
func (c Constant) String() string { return fmt.Sprintf("constant(%g)", float64(c)) }

// StepDecay divides Base by Factor every Every epochs — the paper's CIFAR
// recipe is base 4e-4 decayed 10× every 50 epochs; CelebA is 1e-3 decayed
// 10× every 5 epochs.
type StepDecay struct {
	Base   float64
	Factor float64
	Every  int
}

// LR implements Schedule.
func (s StepDecay) LR(epoch int) float64 {
	if s.Every <= 0 {
		return s.Base
	}
	return s.Base / math.Pow(s.Factor, float64(epoch/s.Every))
}

// String implements Schedule.
func (s StepDecay) String() string {
	return fmt.Sprintf("step(base=%g,÷%g every %d)", s.Base, s.Factor, s.Every)
}

// WarmupCosine ramps linearly from 0 to Base over Warmup epochs, then
// follows a cosine decay to zero at Total epochs — the paper's ImageNet
// ResNet-50 recipe.
type WarmupCosine struct {
	Base   float64
	Warmup int
	Total  int
}

// LR implements Schedule.
func (w WarmupCosine) LR(epoch int) float64 {
	if epoch < w.Warmup {
		return w.Base * float64(epoch+1) / float64(w.Warmup)
	}
	if epoch >= w.Total {
		return 0
	}
	progress := float64(epoch-w.Warmup) / float64(w.Total-w.Warmup)
	return w.Base * 0.5 * (1 + math.Cos(math.Pi*progress))
}

// String implements Schedule.
func (w WarmupCosine) String() string {
	return fmt.Sprintf("warmup-cosine(base=%g,warmup=%d,total=%d)", w.Base, w.Warmup, w.Total)
}

// SGD performs stochastic gradient descent with optional momentum and
// weight decay.
type SGD struct {
	Momentum    float64
	WeightDecay float64
	velocity    map[*nn.Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(momentum, weightDecay float64) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, velocity: map[*nn.Param]*tensor.Tensor{}}
}

// Step applies one update with the given learning rate and clears nothing;
// callers zero gradients themselves before the next accumulation.
//
// The update is a single fused pass per parameter: weight decay, momentum
// and the weight update execute in one loop instead of four tensor
// traversals. Elements are independent, so fusing the passes per element
// preserves the exact floating-point operation sequence of the unfused
// form (decay into grad, scale velocity, add grad, apply update — each
// product explicitly rounded to float32 before it is added, so no build
// fuses a multiply-add, matching the old AddScaled/Scale calls bit for
// bit; TestSGDStepFusedMatchesReference pins this). Weight decay still
// writes the decayed gradient back, preserving the observable Grad
// contents.
func (s *SGD) Step(params []*nn.Param, lr float64) {
	wd := float32(s.WeightDecay)
	m := float32(s.Momentum)
	nlr := float32(-lr)
	for _, p := range params {
		pv, gd := p.Value.Data(), p.Grad.Data()
		if s.Momentum != 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				s.velocity[p] = v
			}
			vd := v.Data()
			if s.WeightDecay != 0 {
				for i := range pv {
					gi := gd[i] + float32(wd*pv[i])
					gd[i] = gi
					vi := float32(vd[i] * m)
					vi += gi
					vd[i] = vi
					pv[i] += float32(nlr * vi)
				}
			} else {
				for i := range pv {
					vi := float32(vd[i] * m)
					vi += gd[i]
					vd[i] = vi
					pv[i] += float32(nlr * vi)
				}
			}
		} else if s.WeightDecay != 0 {
			for i := range pv {
				gd[i] += float32(wd * pv[i])
				pv[i] += float32(nlr * gd[i])
			}
		} else {
			for i := range pv {
				pv[i] += float32(nlr * gd[i])
			}
		}
	}
}
