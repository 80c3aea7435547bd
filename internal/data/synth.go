package data

import (
	"math"

	"repro/internal/rng"
	"repro/internal/tensor"
)

// SynthConfig parameterizes the class-conditional image generator.
type SynthConfig struct {
	Name          string
	Classes       int
	PerClassTrain int
	PerClassTest  int
	C, H, W       int
	// Noise is the per-pixel Gaussian noise stddev. Higher noise leaves more
	// residual test error for churn to act on.
	Noise float64
	// Confusion in [0,1) blends each sample toward a "neighbor" class
	// prototype, creating confusable class pairs.
	Confusion float64
	// Seed is the world seed; the dataset is a pure function of the config.
	Seed uint64
}

// Synthesize generates a dataset: each class has a smooth prototype image
// (random low-frequency Fourier components per channel), and each sample is
// prototype + confusion·neighborPrototype + spatial jitter + pixel noise.
// Class prototypes are drawn i.i.d., so some pairs land close together —
// those pairs carry most of the classification error, giving the per-class
// error spread that Figure 4 decomposes.
func Synthesize(cfg SynthConfig) *Dataset {
	world := rng.New(cfg.Seed)
	protos := makePrototypes(world.Split("prototypes"), cfg)

	train := synthSplit(world.Split("train"), cfg, protos, cfg.PerClassTrain)
	test := synthSplit(world.Split("test"), cfg, protos, cfg.PerClassTest)
	return &Dataset{
		Name: cfg.Name, Classes: cfg.Classes, C: cfg.C, H: cfg.H, W: cfg.W,
		Train: train, Test: test,
	}
}

// prototype holds one class's template image.
type prototype struct {
	img []float32 // C*H*W
}

func makePrototypes(s *rng.Stream, cfg SynthConfig) []prototype {
	protos := make([]prototype, cfg.Classes)
	for k := range protos {
		ps := s.SplitIndex(k)
		img := make([]float32, cfg.C*cfg.H*cfg.W)
		// Sum of a few random low-frequency waves per channel.
		const waves = 4
		for c := 0; c < cfg.C; c++ {
			for wv := 0; wv < waves; wv++ {
				fx := ps.Uniform(0.3, 2.2)
				fy := ps.Uniform(0.3, 2.2)
				phase := ps.Uniform(0, 2*math.Pi)
				amp := ps.Uniform(0.3, 1.0)
				for y := 0; y < cfg.H; y++ {
					for x := 0; x < cfg.W; x++ {
						v := amp * math.Sin(float64(2*math.Pi*(fx*float64(x)/float64(cfg.W)+
							fy*float64(y)/float64(cfg.H)))+phase)
						img[(c*cfg.H+y)*cfg.W+x] += float32(v)
					}
				}
			}
		}
		protos[k] = prototype{img: img}
	}
	return protos
}

func synthSplit(s *rng.Stream, cfg SynthConfig, protos []prototype, perClass int) *Split {
	n := cfg.Classes * perClass
	chw := cfg.C * cfg.H * cfg.W
	x := tensor.New(n, cfg.C, cfg.H, cfg.W)
	y := make([]int, n)
	xd := x.Data()
	idx := 0
	for k := 0; k < cfg.Classes; k++ {
		neighbor := (k + 1) % cfg.Classes
		for i := 0; i < perClass; i++ {
			dst := xd[idx*chw : (idx+1)*chw]
			renderSample(s, cfg, protos[k].img, protos[neighbor].img, dst)
			y[idx] = k
			idx++
		}
	}
	return &Split{X: x, Y: y}
}

// renderSample writes one jittered, noisy blend of proto and neighbor.
func renderSample(s *rng.Stream, cfg SynthConfig, proto, neighbor, dst []float32) {
	// Per-sample confusion weight in [0, Confusion).
	w := float32(s.Float64() * cfg.Confusion)
	// Spatial jitter: shift by up to ±1 pixel in each axis.
	dx := s.Intn(3) - 1
	dy := s.Intn(3) - 1
	for c := 0; c < cfg.C; c++ {
		for yy := 0; yy < cfg.H; yy++ {
			sy := clamp(yy+dy, 0, cfg.H-1)
			for xx := 0; xx < cfg.W; xx++ {
				sx := clamp(xx+dx, 0, cfg.W-1)
				src := (c*cfg.H+sy)*cfg.W + sx
				v := float32((1-w)*proto[src]) + float32(w*neighbor[src])
				dst[(c*cfg.H+yy)*cfg.W+xx] = v + float32(s.Norm()*cfg.Noise)
			}
		}
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
