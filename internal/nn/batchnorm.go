package nn

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// BatchNorm normalizes each channel of an NCHW tensor over the batch and
// spatial dimensions (Ioffe & Szegedy 2015). The paper identifies BN as the
// model-design choice that most strongly curbs noise amplification (Fig. 2);
// the batch-statistic reductions here run through the device, so BN both
// consumes and damps implementation noise.
type BatchNorm struct {
	name     string
	channels int
	momentum float32
	eps      float32

	Gamma, Beta *Param
	runMean     []float32
	runVar      []float32

	// Cached forward state for backward. lastXHat is backed by xhatBuf,
	// reused across steps; it never escapes the layer.
	lastXHat   *tensor.Tensor
	lastInvStd []float32
	lastShape  []int
	xhatBuf    []float32

	// Reduction buffers reused across steps. sumDyBuf and sumDyXBuf are
	// distinct because backward holds both reductions live at once.
	meanBuf   []float32
	varBuf    []float32
	sumBuf    []float32
	sumDyBuf  []float32
	sumDyXBuf []float32

	// Reused tensor headers for the scratch-backed views above (the
	// channel-major temporaries and xhat), so rebinding them each step
	// allocates nothing.
	xcHdr   tensor.Tensor
	dyCHdr  tensor.Tensor
	prodHdr tensor.Tensor
	xhatHdr tensor.Tensor
}

// NewBatchNorm builds a batch-normalization layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	return &BatchNorm{
		name: name, channels: c, momentum: 0.9, eps: 1e-5,
		Gamma:   newParam(name+"/gamma", c),
		Beta:    newParam(name+"/beta", c),
		runMean: make([]float32, c),
		runVar:  make([]float32, c),
	}
}

// Name implements Layer.
func (b *BatchNorm) Name() string { return b.name }

// Params implements Layer.
func (b *BatchNorm) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Init sets gamma to 1, beta to 0, and running stats to the identity
// transform. BN has no random initialization.
func (b *BatchNorm) Init(*rng.Stream) {
	b.Gamma.Value.Fill(1)
	b.Beta.Value.Zero()
	for i := range b.runMean {
		b.runMean[i] = 0
		b.runVar[i] = 1
	}
}

// channelMajor copies an NCHW tensor into a (C, N*H*W) matrix backed by the
// caller-supplied scratch and header (every element is overwritten).
func channelMajor(x *tensor.Tensor, scr []float32, hdr *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	hw := h * w
	out := tensor.FromSliceInto(hdr, scr[:n*c*hw], c, n*hw)
	xd, od := x.Data(), out.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			src := xd[(ni*c+ci)*hw : (ni*c+ci+1)*hw]
			dst := od[(ci*n+ni)*hw : (ci*n+ni+1)*hw]
			copy(dst, src)
		}
	}
	return out
}

// Forward implements Layer.
func (b *BatchNorm) Forward(dev *device.Device, x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Rank() != 4 || x.Dim(1) != b.channels {
		panic(fmt.Sprintf("nn: BatchNorm %s input must be (N,%d,H,W), got %v", b.name, b.channels, x.Shape()))
	}
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	m := float32(n * h * w)

	var mean, variance []float32
	if train {
		// Batch statistics via device reductions (order-sensitive). The
		// channel-major temporary is pooled scratch, dead by return.
		scr := tensor.GetScratch(n * c * h * w)
		xc := channelMajor(x, scr, &b.xcHdr)
		b.sumBuf = dev.SumRowsInto(xc, b.sumBuf)
		b.meanBuf = scratchFloats(b.meanBuf, c)
		mean = b.meanBuf
		for i, s := range b.sumBuf[:c] {
			mean[i] = s / m
		}
		// E[(x-mean)^2] per channel.
		sq := xc // reuse: subtract mean, square in place
		sd := sq.Data()
		cols := n * h * w
		for ci := 0; ci < c; ci++ {
			mu := mean[ci]
			row := sd[ci*cols : (ci+1)*cols]
			for i, v := range row {
				d := v - mu
				row[i] = d * d
			}
		}
		b.sumBuf = dev.SumRowsInto(sq, b.sumBuf) // sums dead; reuse buffer
		tensor.PutScratch(scr)
		b.varBuf = scratchFloats(b.varBuf, c)
		variance = b.varBuf
		for i, s := range b.sumBuf[:c] {
			variance[i] = s / m
		}
		// Update running stats.
		for i := range b.runMean {
			b.runMean[i] = float32(b.momentum*b.runMean[i]) + float32((1-b.momentum)*mean[i])
			b.runVar[i] = float32(b.momentum*b.runVar[i]) + float32((1-b.momentum)*variance[i])
		}
	} else {
		mean, variance = b.runMean, b.runVar
	}

	b.lastInvStd = scratchFloats(b.lastInvStd, c)
	invStd := b.lastInvStd
	for i := range invStd {
		invStd[i] = 1 / float32(math.Sqrt(float64(variance[i]+b.eps)))
	}

	out := dev.Alloc(n, c, h, w)
	b.xhatBuf = scratchFloats(b.xhatBuf, n*c*h*w)
	xhat := tensor.FromSliceInto(&b.xhatHdr, b.xhatBuf, n, c, h, w)
	xd, od, hd := x.Data(), out.Data(), xhat.Data()
	gd, bd := b.Gamma.Value.Data(), b.Beta.Value.Data()
	hw := h * w
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			mu, is, g, be := mean[ci], invStd[ci], gd[ci], bd[ci]
			base := (ni*c + ci) * hw
			for i := 0; i < hw; i++ {
				xh := (xd[base+i] - mu) * is
				hd[base+i] = xh
				od[base+i] = float32(g*xh) + be
			}
		}
	}
	if train {
		b.lastXHat = xhat
		b.lastShape = append(b.lastShape[:0], x.Shape()...)
	} else {
		b.lastXHat = nil
	}
	return out
}

// Backward implements Layer (training-mode statistics).
func (b *BatchNorm) Backward(dev *device.Device, dy *tensor.Tensor) *tensor.Tensor {
	if b.lastXHat == nil {
		panic(fmt.Sprintf("nn: BatchNorm %s Backward before training-mode Forward", b.name))
	}
	n, c, h, w := b.lastShape[0], b.lastShape[1], b.lastShape[2], b.lastShape[3]
	hw := h * w
	m := float32(n * hw)

	// Per-channel reductions: sum(dy) and sum(dy * xhat). Both channel-major
	// temporaries are pooled scratch, released after the reductions.
	dyScr := tensor.GetScratch(n * c * hw)
	dyC := channelMajor(dy, dyScr, &b.dyCHdr)
	prodScr := tensor.GetScratch(n * c * hw)
	prod := channelMajor(b.lastXHat, prodScr, &b.prodHdr)
	prod.MulElem(dyC)
	b.sumDyBuf = dev.SumRowsInto(dyC, b.sumDyBuf)
	b.sumDyXBuf = dev.SumRowsInto(prod, b.sumDyXBuf)
	sumDy, sumDyXhat := b.sumDyBuf, b.sumDyXBuf
	tensor.PutScratch(dyScr)
	tensor.PutScratch(prodScr)

	// Parameter gradients.
	gg, bg := b.Gamma.Grad.Data(), b.Beta.Grad.Data()
	for i := 0; i < c; i++ {
		gg[i] += sumDyXhat[i]
		bg[i] += sumDy[i]
	}

	// dx = (gamma*invStd/m) * (m*dy - sum(dy) - xhat*sum(dy*xhat))
	dx := dev.Alloc(n, c, h, w)
	dxd, dyd, hd := dx.Data(), dy.Data(), b.lastXHat.Data()
	gd := b.Gamma.Value.Data()
	for ni := 0; ni < n; ni++ {
		for ci := 0; ci < c; ci++ {
			coef := gd[ci] * b.lastInvStd[ci] / m
			sDy, sDyX := sumDy[ci], sumDyXhat[ci]
			base := (ni*c + ci) * hw
			for i := 0; i < hw; i++ {
				dxd[base+i] = coef * (float32(m*dyd[base+i]) - sDy - float32(hd[base+i]*sDyX))
			}
		}
	}
	b.lastXHat = nil
	return dx
}

// scratchFloats grows a layer-owned float buffer to length n, reusing its
// backing array when possible. Contents are unspecified.
func scratchFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// RunningStats exposes the running mean and variance (for tests).
func (b *BatchNorm) RunningStats() (mean, variance []float32) {
	return b.runMean, b.runVar
}
