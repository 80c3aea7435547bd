package opt

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// refStep is the unfused four-pass SGD update the fused Step replaced:
// decay into grad, scale velocity, accumulate grad, apply update — each
// pass a full tensor traversal with its intermediate rounded at the
// statement boundary.
type refStep struct {
	momentum, weightDecay float64
	velocity              map[*nn.Param]*tensor.Tensor
}

func (s *refStep) step(params []*nn.Param, lr float64) {
	for _, p := range params {
		g := p.Grad
		if s.weightDecay != 0 {
			g.AddScaled(float32(s.weightDecay), p.Value)
		}
		if s.momentum != 0 {
			v, ok := s.velocity[p]
			if !ok {
				v = tensor.New(p.Value.Shape()...)
				s.velocity[p] = v
			}
			v.Scale(float32(s.momentum))
			v.AddScaled(1, g)
			p.Value.AddScaled(float32(-lr), v)
		} else {
			p.Value.AddScaled(float32(-lr), g)
		}
	}
}

// TestSGDStepFusedMatchesReference pins that the fused single-pass Step is
// bit-identical to the unfused reference across every momentum/decay
// combination: same weights, same velocity, and the same decayed gradient
// written back. Values are awkward (irrational-ish) floats so any changed
// rounding sequence would show.
func TestSGDStepFusedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		momentum float64
		decay    float64
	}{
		{"plain", 0, 0},
		{"momentum", 0.9, 0},
		{"decay", 0, 5e-4},
		{"momentum+decay", 0.9, 5e-4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mkNet := func() *nn.Sequential {
				net := nn.NewSequential("n",
					nn.NewDense("fc1", 13, 7),
					nn.NewReLU("r"),
					nn.NewDense("fc2", 7, 3),
				)
				net.Init(rng.New(42))
				return net
			}
			a, b := mkNet(), mkNet()
			fused := NewSGD(tc.momentum, tc.decay)
			ref := &refStep{momentum: tc.momentum, weightDecay: tc.decay, velocity: map[*nn.Param]*tensor.Tensor{}}

			gradStream := rng.New(7)
			for step := 0; step < 20; step++ {
				// Identical pseudo-gradients on both nets.
				for pi := range a.Params() {
					ga, gb := a.Params()[pi].Grad.Data(), b.Params()[pi].Grad.Data()
					for i := range ga {
						g := float32(float64(gradStream.Float64()*2) - 1)
						ga[i], gb[i] = g, g
					}
				}
				lr := 0.05 / float64(step+1)
				fused.Step(a.Params(), lr)
				ref.step(b.Params(), lr)
			}
			for pi := range a.Params() {
				pa, pb := a.Params()[pi], b.Params()[pi]
				if !tensor.Equal(pa.Value, pb.Value) {
					t.Fatalf("param %s: fused weights diverge from reference", pa.Name)
				}
				if !tensor.Equal(pa.Grad, pb.Grad) {
					t.Fatalf("param %s: decayed gradient write-back diverges", pa.Name)
				}
				if tc.momentum != 0 {
					if !tensor.Equal(fused.velocity[pa], ref.velocity[pb]) {
						t.Fatalf("param %s: velocity diverges", pa.Name)
					}
				}
			}
		})
	}
}
