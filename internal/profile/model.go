// Package profile implements an nvprof-style kernel-time model that prices
// the cost of deterministic execution (Section 4 of the paper).
//
// The paper profiles real cuDNN kernels; this reproduction cannot run them,
// so it models the decision problem the framework faces instead. Every
// layer of a network graph expands into its training kernels (forward,
// backward-data, backward-weights, plus the normalization / bias / pooling
// service kernels). For each kernel the framework picks an algorithm:
//
//   - Default mode picks the fastest algorithm available, including
//     nondeterministic ones (Winograd/FFT variants with atomic reductions,
//     atomicAdd-based backward-weights).
//   - Deterministic mode is restricted to deterministic algorithms
//     (implicit GEMM), which are slower by an architecture- and
//     filter-size-dependent factor.
//
// The per-architecture penalty tables are calibrated to the envelope the
// paper measures on the medium CNN (Figure 8b): 284–746 % on P100,
// 129–241 % on V100 and 117–196 % on T4 across 1×1…7×7 kernels, with the
// penalty always growing in filter size and shrinking with newer
// architectures. 1×1 convolutions dispatch to plain (deterministic) GEMM in
// both modes, and the old Pascal part pays the largest service-kernel
// penalty — both properties the paper calls out.
package profile

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/models"
)

// archParams models one GPU generation's execution profile.
type archParams struct {
	// flops is the sustained compute throughput (FLOPs/s) for conv kernels.
	flops float64
	// bw is the effective memory bandwidth (bytes/s) for service kernels.
	bw float64
	// poolPenalty multiplies max-pool backward time in deterministic mode:
	// the default kernel scatters with atomicAdd; the deterministic
	// replacement is a gather that old architectures run very slowly.
	poolPenalty float64
	// convPenaltyMax is the deterministic slowdown of spatial-conv backward
	// kernels at 7×7; the penalty interpolates from 1 at 1×1 via
	// 1 + (max-1)·((k²−1)/48)^convExp. convExp controls how front-loaded
	// the penalty is: T4's deterministic kernels are uniformly ~2× across
	// filter sizes (flat, small exponent); Pascal's blow up with size.
	convPenaltyMax float64
	convExp        float64
}

// params holds per-architecture calibrations for the parts the paper
// profiles (Figure 8 uses P100, V100 and T4).
var params = map[device.Arch]archParams{
	device.ArchPascal: {flops: 9.5e12, bw: 7.2e11, poolPenalty: 10.5, convPenaltyMax: 8.75, convExp: 0.70},
	device.ArchVolta:  {flops: 14e12, bw: 9.0e11, poolPenalty: 2.45, convPenaltyMax: 2.69, convExp: 0.28},
	device.ArchTuring: {flops: 8.1e12, bw: 6.4e11, poolPenalty: 1.85, convPenaltyMax: 2.15, convExp: 0.03},
}

// convPenalty returns the deterministic slowdown for a spatial convolution
// backward kernel of effective size k on the architecture.
func (a archParams) convPenalty(k float64) float64 {
	if k <= 1 {
		return 1 // 1×1 convolutions are plain GEMM: deterministic either way
	}
	kk := float64(k * k)
	return 1 + float64((a.convPenaltyMax-1)*math.Pow((kk-1)/48, a.convExp))
}

// KernelTime is one aggregated kernel row of a profile.
type KernelTime struct {
	// Name identifies the algorithm actually dispatched, nvprof-style.
	Name string
	// Millis is cumulative GPU time across the profiled steps.
	Millis float64
}

// Profile is the result of profiling one network on one part in one mode.
type Profile struct {
	Model   string
	Arch    device.Arch
	Mode    device.Mode
	Batch   int
	Steps   int
	Kernels []KernelTime // sorted by descending time
	Total   float64      // total GPU milliseconds
}

// TopK returns the k most expensive kernels (fewer if the profile is small).
func (p *Profile) TopK(k int) []KernelTime {
	if k > len(p.Kernels) {
		k = len(p.Kernels)
	}
	return p.Kernels[:k]
}

// Options configures a profiling run. Zero values take the paper's setup
// (batch 64, 100 steps — Section 4).
type Options struct {
	Batch int
	Steps int
}

func (o Options) withDefaults() Options {
	if o.Batch == 0 {
		o.Batch = 64
	}
	if o.Steps == 0 {
		o.Steps = 100
	}
	return o
}

// Graph profiles one training step schedule of g on the given architecture
// and mode, returning aggregated kernel times.
func Graph(g *models.Graph, arch device.Arch, mode device.Mode, opts Options) (*Profile, error) {
	p, ok := params[arch]
	if !ok {
		return nil, fmt.Errorf("profile: no cost model for architecture %q", arch)
	}
	opts = opts.withDefaults()
	agg := map[string]float64{}
	for _, layer := range g.Layers {
		for _, k := range layerKernels(layer, p, mode, opts.Batch) {
			agg[k.Name] += k.Millis
		}
	}
	prof := &Profile{Model: g.Name, Arch: arch, Mode: mode, Batch: opts.Batch, Steps: opts.Steps}
	for name, ms := range agg {
		prof.Kernels = append(prof.Kernels, KernelTime{Name: name, Millis: ms * float64(opts.Steps)})
		prof.Total += float64(ms * float64(opts.Steps))
	}
	sortKernels(prof.Kernels)
	return prof, nil
}

// Overhead returns deterministic-mode total GPU time as a fraction of
// default-mode time (1.0 = no overhead), matching the normalized axes of
// Figure 8.
func Overhead(g *models.Graph, arch device.Arch, opts Options) (float64, error) {
	def, err := Graph(g, arch, device.Default, opts)
	if err != nil {
		return 0, err
	}
	det, err := Graph(g, arch, device.Deterministic, opts)
	if err != nil {
		return 0, err
	}
	return det.Total / def.Total, nil
}

func sortKernels(ks []KernelTime) {
	// Insertion sort by descending time, then name for stable ordering; the
	// slices are tiny (tens of kernel families).
	for i := 1; i < len(ks); i++ {
		for j := i; j > 0 && less(ks[j], ks[j-1]); j-- {
			ks[j], ks[j-1] = ks[j-1], ks[j]
		}
	}
}

func less(a, b KernelTime) bool {
	if a.Millis != b.Millis {
		return a.Millis > b.Millis
	}
	return a.Name < b.Name
}
