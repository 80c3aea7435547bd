package profile

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/models"
)

// layerKernels expands one layer into its per-step training kernels with
// modeled times (milliseconds for one step at the given batch size).
//
// Which kernels pay a deterministic penalty follows cuDNN/TF behaviour:
//
//   - Spatial convolutions (k ≥ 2): backward-data and backward-weights use
//     nondeterministic algorithms (Winograd/FFT variants, atomicAdd wgrad)
//     by default; deterministic mode pins them to implicit GEMM. Penalty
//     grows with filter size, steeply on older architectures.
//   - 1×1 convolutions, dense layers, depthwise convolutions: plain GEMM /
//     per-channel kernels, deterministic in both modes — why MobileNet
//     shows almost no overhead in Figure 8a.
//   - Max-pool backward: atomicAdd scatter by default; the deterministic
//     replacement is the arch-dependent service penalty (the dominant cost
//     for the 1×1 medium CNN column of Figure 8b).
//   - Batch norm, activations, forward convs: already deterministic, no
//     penalty.
func layerKernels(l models.LayerSpec, p archParams, mode device.Mode, batch int) []KernelTime {
	b := float64(batch)
	switch l.Kind {
	case models.OpConv:
		return convKernels(l, p, mode, b)
	case models.OpDepthwiseConv:
		// Depthwise kernels reduce only over their own channel's small
		// window: deterministic in both modes.
		ms := flopsMillis(3*b*float64(l.FwdFLOPs()), p.flops)
		return []KernelTime{{Name: "depthwise", Millis: ms}}
	case models.OpDense:
		ms := flopsMillis(3*b*float64(l.FwdFLOPs()), p.flops)
		return []KernelTime{{Name: "gemm", Millis: ms}}
	case models.OpBatchNorm:
		// cuDNN batch norm is deterministic already; both modes run the same
		// kernels.
		ms := memMillis(2*3*b*volume(l), p.bw)
		return []KernelTime{
			{Name: "batchnorm_fwd", Millis: ms / 2},
			{Name: "batchnorm_bwd", Millis: ms / 2},
		}
	case models.OpPool:
		fwd := memMillis(3*b*volume(l), p.bw)
		bwd := fwd
		bwdName := "pool_bwd_atomic"
		if mode == device.Deterministic {
			bwd *= p.poolPenalty
			bwdName = "pool_bwd_det"
		}
		return []KernelTime{
			{Name: "pool_fwd", Millis: fwd},
			{Name: bwdName, Millis: bwd},
		}
	case models.OpActivation:
		ms := memMillis(3*b*volume(l), p.bw)
		return []KernelTime{{Name: "activation", Millis: ms}}
	}
	return nil
}

// convKernels models the three convolution training kernels.
func convKernels(l models.LayerSpec, p archParams, mode device.Mode, b float64) []KernelTime {
	fwd := b * float64(l.FwdFLOPs())
	family := algoFamily(l)

	if family == "gemm" {
		// 1×1 convolution: one GEMM per pass, deterministic either way.
		return []KernelTime{{Name: "gemm", Millis: flopsMillis(3*fwd, p.flops)}}
	}

	penalty := 1.0
	if mode == device.Deterministic {
		penalty = p.convPenalty(l.EffKernel())
	}
	name := func(op string) string {
		if mode == device.Deterministic {
			return fmt.Sprintf("implicit_gemm_%s", op)
		}
		return fmt.Sprintf("%s_%s_%dx%d", family, op, l.Kernel, l.KernelW())
	}

	// Forward conv is deterministic in both modes; dgrad pays the penalty;
	// wgrad (the atomics-heavy kernel) pays 1.5× the excess.
	dgradPenalty := penalty
	wgradPenalty := 1 + float64((penalty-1)*1.5)
	return []KernelTime{
		{Name: name("fprop"), Millis: flopsMillis(fwd, p.flops)},
		{Name: name("dgrad"), Millis: flopsMillis(fwd, p.flops) * dgradPenalty},
		{Name: name("wgrad"), Millis: flopsMillis(fwd, p.flops) * wgradPenalty},
	}
}

// algoFamily picks the default-mode algorithm family for a conv layer,
// mirroring cuDNN's heuristics: 1×1 is plain GEMM, 3×3 prefers Winograd,
// larger filters prefer FFT.
func algoFamily(l models.LayerSpec) string {
	k := l.EffKernel()
	switch {
	case k <= 1:
		return "gemm"
	case k <= 4:
		return "winograd"
	default:
		return "fft"
	}
}

// volume returns the layer's input activation bytes per example.
func volume(l models.LayerSpec) float64 {
	return 4 * float64(l.InC) * float64(l.H) * float64(l.W)
}

func flopsMillis(flops, tput float64) float64 { return flops / tput * 1e3 }

func memMillis(bytes, bw float64) float64 { return bytes / bw * 1e3 }
