package rng

import "math"

// FillUniform fills dst with uniform draws in [lo, hi).
func (s *Stream) FillUniform(dst []float32, lo, hi float64) {
	for i := range dst {
		dst[i] = float32(s.Uniform(lo, hi))
	}
}

// FillNorm fills dst with N(mean, std^2) draws.
func (s *Stream) FillNorm(dst []float32, mean, std float64) {
	for i := range dst {
		dst[i] = float32(mean + float64(std*s.Norm()))
	}
}

// GlorotUniform fills dst with Glorot/Xavier uniform initialization for a
// weight tensor with the given fan-in and fan-out (Glorot & Bengio 2010).
func (s *Stream) GlorotUniform(dst []float32, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	s.FillUniform(dst, -limit, limit)
}

// HeNormal fills dst with He initialization for ReLU networks (He et al.
// 2015): N(0, sqrt(2/fanIn)^2).
func (s *Stream) HeNormal(dst []float32, fanIn int) {
	std := math.Sqrt(2.0 / float64(fanIn))
	s.FillNorm(dst, 0, std)
}
