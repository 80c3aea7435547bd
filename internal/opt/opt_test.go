package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

func oneParamNet(t *testing.T) (*nn.Sequential, *nn.Param) {
	t.Helper()
	net := nn.NewSequential("n", nn.NewDense("fc", 2, 1))
	net.Init(rng.New(1))
	return net, net.Params()[0]
}

func TestSGDPlainStep(t *testing.T) {
	_, p := oneParamNet(t)
	p.Value.Fill(1)
	p.Grad.Fill(0.5)
	NewSGD(0, 0).Step([]*nn.Param{p}, 0.1)
	for _, v := range p.Value.Data() {
		if math.Abs(float64(v)-0.95) > 1e-7 {
			t.Fatalf("plain SGD: %v, want 0.95", v)
		}
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	_, p := oneParamNet(t)
	p.Value.Fill(0)
	s := NewSGD(0.9, 0)
	// Constant gradient 1: velocity after k steps = sum of 0.9^i.
	var wantVel float64
	var wantPos float64
	for k := 0; k < 5; k++ {
		p.Grad.Fill(1)
		s.Step([]*nn.Param{p}, 0.1)
		wantVel = float64(0.9*wantVel) + 1
		wantPos -= float64(0.1 * wantVel)
		p.Grad.Fill(0) // caller zeroes between accumulations
	}
	if got := float64(p.Value.Data()[0]); math.Abs(got-wantPos) > 1e-5 {
		t.Fatalf("momentum position %v, want %v", got, wantPos)
	}
}

func TestSGDWeightDecayPullsTowardZero(t *testing.T) {
	_, p := oneParamNet(t)
	p.Value.Fill(2)
	p.Grad.Fill(0)
	NewSGD(0, 0.1).Step([]*nn.Param{p}, 1)
	// g = 0 + 0.1*2 = 0.2; new value = 2 - 0.2 = 1.8
	if got := p.Value.Data()[0]; math.Abs(float64(got)-1.8) > 1e-6 {
		t.Fatalf("weight decay: %v, want 1.8", got)
	}
}

func TestConstantSchedule(t *testing.T) {
	s := Constant(0.01)
	if s.LR(0) != 0.01 || s.LR(100) != 0.01 {
		t.Fatal("constant schedule not constant")
	}
}

func TestStepDecaySchedule(t *testing.T) {
	s := StepDecay{Base: 4e-4, Factor: 10, Every: 50}
	if s.LR(0) != 4e-4 || s.LR(49) != 4e-4 {
		t.Fatal("step decay before first boundary")
	}
	if math.Abs(s.LR(50)-4e-5) > 1e-12 {
		t.Fatalf("step decay at 50: %v", s.LR(50))
	}
	if math.Abs(s.LR(150)-4e-7) > 1e-15 {
		t.Fatalf("step decay at 150: %v", s.LR(150))
	}
}

func TestStepDecayZeroEvery(t *testing.T) {
	s := StepDecay{Base: 1e-3, Factor: 10, Every: 0}
	if s.LR(7) != 1e-3 {
		t.Fatal("Every=0 must mean no decay")
	}
}

func TestWarmupCosineSchedule(t *testing.T) {
	s := WarmupCosine{Base: 0.1, Warmup: 5, Total: 90}
	if got := s.LR(0); math.Abs(got-0.02) > 1e-9 {
		t.Fatalf("warmup epoch 0: %v", got)
	}
	if got := s.LR(4); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("warmup end: %v", got)
	}
	if got := s.LR(5); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("cosine start: %v", got)
	}
	mid := s.LR(5 + (90-5)/2)
	if mid > 0.06 || mid < 0.04 {
		t.Fatalf("cosine midpoint: %v, want ~0.05", mid)
	}
	if got := s.LR(89); got > 0.001 {
		t.Fatalf("cosine end: %v, want ~0", got)
	}
	if s.LR(90) != 0 || s.LR(1000) != 0 {
		t.Fatal("past-total LR must be 0")
	}
	// Monotone decreasing after warmup.
	prev := s.LR(5)
	for e := 6; e < 90; e++ {
		cur := s.LR(e)
		if cur > prev {
			t.Fatalf("cosine not monotone at %d: %v > %v", e, cur, prev)
		}
		prev = cur
	}
}

func TestSGDDeterministic(t *testing.T) {
	run := func() float32 {
		_, p := oneParamNet(t)
		p.Value.Fill(1)
		s := NewSGD(0.9, 1e-4)
		for i := 0; i < 10; i++ {
			p.Grad.Fill(float32(i) * 0.1)
			s.Step([]*nn.Param{p}, 0.05)
			p.Grad.Zero()
		}
		return p.Value.Data()[0]
	}
	if run() != run() {
		t.Fatal("SGD updates are nondeterministic")
	}
}
