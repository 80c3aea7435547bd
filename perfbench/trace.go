package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// layerClasses are the nn layer families the traced step reports.
var layerClasses = []string{"conv", "batchnorm", "relu", "pool", "residual", "dense"}

// layerClass maps a top-level layer onto its reported family. Flatten is
// the reshape feeding a dense head and is billed to it.
func layerClass(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.BatchNorm:
		return "batchnorm"
	case *nn.ReLU, *nn.Dropout:
		return "relu"
	case *nn.MaxPool2D, *nn.GlobalAvgPool:
		return "pool"
	case *nn.Residual:
		return "residual"
	case *nn.Dense, *nn.Flatten:
		return "dense"
	}
	return "other"
}

// trainConfig rebuilds the core.TrainConfig a work unit resolves to, from
// the public model, dataset and optimizer constructors. The traced loop's
// parity check against the replica the server trained proves the
// reconstruction exact.
func trainConfig(u experiments.WorkUnit) (core.TrainConfig, core.Variant, error) {
	var zero core.TrainConfig
	scale, err := data.ParseScale(u.Scale)
	if err != nil {
		return zero, 0, err
	}
	v, err := core.ParseVariant(u.Variant)
	if err != nil {
		return zero, 0, err
	}
	dev, err := device.ByName(u.Device)
	if err != nil {
		return zero, 0, err
	}
	var model func(classes int) *nn.Sequential
	switch u.Task {
	case taskSmall:
		model = func(k int) *nn.Sequential { return models.SmallCNN(models.DefaultSmallCNN(k)) }
	case taskSmallBN:
		model = func(k int) *nn.Sequential {
			c := models.DefaultSmallCNN(k)
			c.BatchNorm = true
			return models.SmallCNN(c)
		}
	case taskResNet:
		model = models.ResNet18
	default:
		return zero, 0, fmt.Errorf("no model for task %q", u.Task)
	}
	ds := data.CIFAR10Like(scale)
	return core.TrainConfig{
		Model:       func() *nn.Sequential { return model(ds.Classes) },
		Dataset:     ds,
		Device:      dev,
		Epochs:      u.Epochs,
		Batch:       u.Batch,
		Schedule:    opt.StepDecay{Base: u.LR, Factor: 10, Every: int(float64(u.Epochs) * u.DecayAt)},
		Momentum:    0.9,
		WeightDecay: u.WeightDecay,
		Augment:     data.Augment{Shift: u.AugmentShift, Flip: u.AugmentFlip},
		BaseSeed:    u.Seed,
	}, v, nil
}

// stepTrace is what the traced step loop measured, as totals over every
// training step of the replica.
type stepTrace struct {
	steps           int
	step            time.Duration // whole steps, Next through workspace reset
	next            time.Duration // blocked in Epoch.Next
	zeroGrad        time.Duration
	fwd, bwd        map[string]time.Duration // by layer class
	loss            time.Duration
	sgd             time.Duration
	wsReset         time.Duration
	launches        int64
	allocs          uint64 // heap allocations over the warm steps sampled
	allocSteps      int
	inShape         [][]int // per top-level layer, first step
	outShape        [][]int
	layers          []nn.Layer
	cfg             core.TrainConfig
	tracedWall      time.Duration
	untracedWall    time.Duration
	untraced, trace *core.RunResult
}

// parts is the sum of the separately timed pieces of all steps.
func (s *stepTrace) parts() time.Duration {
	t := s.next + s.zeroGrad + s.loss + s.sgd + s.wsReset
	for _, d := range s.fwd {
		t += d
	}
	for _, d := range s.bwd {
		t += d
	}
	return t
}

// traceReplica is core.RunReplica with a clock around every call into
// each module: the same seeds, network, device, workspace, loader and
// optimizer, stepped layer by layer through Layers(). Heap allocations
// are counted on the warm mid-epoch steps, outside the timed regions.
func traceReplica(cfg core.TrainConfig, v core.Variant, replica int, prefetch bool) (*core.RunResult, *stepTrace) {
	initS, shuffleS, augS, mode, entropy := core.SeedsFor(cfg.BaseSeed, v, replica)
	net := cfg.Model()
	net.Init(initS)
	dev := device.New(cfg.Device, mode, entropy)
	ws := net.UseWorkspace()
	dev.SetWorkspace(ws)
	loader := data.NewLoader(cfg.Dataset, cfg.Dataset.Train, cfg.Batch, cfg.Augment)
	loader.SetPrefetch(prefetch)
	sgd := opt.NewSGD(cfg.Momentum, cfg.WeightDecay)
	layers := net.Layers()
	class := make([]string, len(layers))
	for i, l := range layers {
		class[i] = layerClass(l)
	}
	fwd := make([]time.Duration, len(layers))
	bwd := make([]time.Duration, len(layers))
	st := &stepTrace{layers: layers, cfg: cfg, inShape: make([][]int, len(layers)), outShape: make([][]int, len(layers))}
	batches := (cfg.Dataset.Train.N() + cfg.Batch - 1) / cfg.Batch
	var ms0, ms1 runtime.MemStats

	res := &core.RunResult{Variant: v, Replica: replica, EpochLoss: make([]float64, 0, cfg.Epochs)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.Schedule.LR(epoch)
		var epochLoss float64
		ep := loader.Epoch(shuffleS.SplitIndex(epoch), augS.SplitIndex(epoch))
		var b data.Batch
		for k := 0; ; k++ {
			// Warm mid-epoch steps: every workspace shape and pooled
			// buffer exists, and neither the epoch's start nor its
			// partial last batch is inside the window.
			sample := k >= 2 && k < batches-1
			if sample {
				runtime.ReadMemStats(&ms0)
			}
			launches := dev.KernelLaunches()
			t0 := time.Now()
			if !ep.Next(&b) {
				break
			}
			t1 := time.Now()
			net.ZeroGrad()
			t2 := time.Now()
			x := b.X
			for i, l := range layers {
				if st.steps == 0 {
					st.inShape[i] = append([]int(nil), x.Shape()...)
				}
				ts := time.Now()
				x = l.Forward(dev, x, true)
				fwd[i] += time.Since(ts)
				if st.steps == 0 {
					st.outShape[i] = append([]int(nil), x.Shape()...)
				}
			}
			t3 := time.Now()
			loss, dy := nn.SoftmaxCrossEntropyInPlace(dev, x, b.Labels)
			t4 := time.Now()
			for i := len(layers) - 1; i >= 0; i-- {
				ts := time.Now()
				dy = layers[i].Backward(dev, dy)
				bwd[i] += time.Since(ts)
			}
			t5 := time.Now()
			sgd.Step(net.Params(), lr)
			t6 := time.Now()
			ws.Reset()
			t7 := time.Now()
			if sample {
				runtime.ReadMemStats(&ms1)
				st.allocs += ms1.Mallocs - ms0.Mallocs
				st.allocSteps++
			}
			st.next += t1.Sub(t0)
			st.zeroGrad += t2.Sub(t1)
			st.loss += t4.Sub(t3)
			st.sgd += t6.Sub(t5)
			st.wsReset += t7.Sub(t6)
			st.step += t7.Sub(t0)
			st.launches += dev.KernelLaunches() - launches
			st.steps++
			epochLoss += loss
		}
		res.EpochLoss = append(res.EpochLoss, epochLoss/float64(batches))
	}
	st.fwd, st.bwd = map[string]time.Duration{}, map[string]time.Duration{}
	for i := range layers {
		st.fwd[class[i]] += fwd[i]
		st.bwd[class[i]] += bwd[i]
	}

	res.Predictions = core.Predict(net, dev, cfg.Dataset, cfg.Dataset.Test, cfg.Batch)
	correct := 0
	for i, p := range res.Predictions {
		if p == cfg.Dataset.Test.Y[i] {
			correct++
		}
	}
	res.TestAccuracy = float64(correct) / float64(len(res.Predictions))
	res.Weights = net.WeightVector()
	return res, st
}

// batchPrefetch reads the core package's batch-prefetch setting, which it
// exposes only through a swap.
func batchPrefetch() bool {
	on := core.SetBatchPrefetch(true)
	core.SetBatchPrefetch(on)
	return on
}

// traceUnit re-trains one replica the server trained, first untraced
// through core.RunReplica and then through the traced loop, and returns
// both results with their wall times.
func traceUnit(u experiments.WorkUnit) (*stepTrace, error) {
	cfg, v, err := trainConfig(u)
	if err != nil {
		return nil, err
	}
	prefetch := batchPrefetch()
	start := time.Now()
	untraced, err := core.RunReplica(context.Background(), cfg, v, u.Replica)
	if err != nil {
		return nil, err
	}
	untracedWall := time.Since(start)
	start = time.Now()
	res, st := traceReplica(cfg, v, u.Replica, prefetch)
	st.tracedWall = time.Since(start)
	st.untracedWall = untracedWall
	st.untraced, st.trace = untraced, res
	return st, nil
}

// kernel is one device kernel launch of a training step, replayable on
// a fresh device.
type kernel struct {
	class string
	flops float64 // multiply-adds × 2, for GEMM classes
	run   func(dev *device.Device)
}

// convGeom recovers a convolution's geometry from its kernel size,
// channels and the spatial sizes around it: padding is the one that maps
// the input to a stride-scaled output.
func convGeom(n, inC, inH, inW, outC, k, stride int) (tensor.ConvGeom, error) {
	for pad := 0; pad <= k; pad++ {
		g := tensor.ConvGeom{Batch: n, InC: inC, InH: inH, InW: inW, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad}
		if g.Validate() == nil && g.OutH() == (inH+stride-1)/stride && g.OutW() == (inW+stride-1)/stride {
			return g, nil
		}
	}
	return tensor.ConvGeom{}, fmt.Errorf("no padding maps %dx%d to stride %d output with kernel %d", inH, inW, stride, k)
}

// entropyFor is the scheduler-entropy stream a replay device draws from:
// Default mode needs one to perturb accumulation orders.
func entropyFor(mode device.Mode) *rng.Stream {
	if mode == device.Default {
		return rng.New(7)
	}
	return nil
}

func filled(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = float32(math.Sin(float64(i)))
	}
	return t
}

func convKernels(g tensor.ConvGeom) []kernel {
	o, r, cols := g.OutC, g.ColRows(), g.ColCols()
	w := filled(o, r)
	x := filled(g.Batch, g.InC, g.InH, g.InW)
	dyMat := filled(o, cols)
	dcol := filled(r, cols)
	dx := tensor.New(g.Batch, g.InC, g.InH, g.InW)
	var db []float32
	mac := 2 * float64(o) * float64(r) * float64(cols)
	return []kernel{
		{"im2col_gemm", mac, func(d *device.Device) { d.MatMulIm2Col(w, x, g) }},
		{"im2col_gemm_t", mac, func(d *device.Device) { d.MatMulIm2ColT(dyMat, x, g) }},
		{"gemm", mac, func(d *device.Device) { d.MatMul(w, dyMat, true, false) }},
		{"reduce", 0, func(d *device.Device) { db = d.SumRowsInto(dyMat, db) }},
		{"col2im", 0, func(d *device.Device) { dx.Zero(); d.Col2Im(dcol, g, dx) }},
	}
}

func denseKernels(n, in, out int) []kernel {
	x := filled(n, in)
	w := filled(out, in)
	dy := filled(n, out)
	var db []float32
	mac := 2 * float64(n) * float64(in) * float64(out)
	return []kernel{
		{"gemm", mac, func(d *device.Device) { d.MatMul(x, w, false, true) }},
		{"gemm", mac, func(d *device.Device) { d.MatMul(dy, x, true, false) }},
		{"gemm", mac, func(d *device.Device) { d.MatMul(dy, w, false, false) }},
		{"reduce", 0, func(d *device.Device) { db = d.SumColsInto(dy, db) }},
	}
}

// rowSums is n launches of SumRowsInto over a rows × cols matrix.
func rowSums(rows, cols, n int) []kernel {
	m := filled(rows, cols)
	var buf []float32
	ks := make([]kernel, n)
	for i := range ks {
		ks[i] = kernel{"reduce", 0, func(d *device.Device) { buf = d.SumRowsInto(m, buf) }}
	}
	return ks
}

// stepKernels lists the device kernels one training step launches, from
// the layer shapes the traced loop recorded. Top-level layers give their
// geometry directly; a residual block's convolutions are recovered from
// its parameters in chain order (body, then shortcut) and must land on
// the block's recorded output shape. Batch-norm reductions follow the
// convolution they normalize.
func stepKernels(st *stepTrace) ([]kernel, []tensor.ConvGeom, error) {
	var ks []kernel
	var geoms []tensor.ConvGeom
	addConv := func(g tensor.ConvGeom) {
		ks = append(ks, convKernels(g)...)
		geoms = append(geoms, g)
	}
	for i, l := range st.layers {
		in, out := st.inShape[i], st.outShape[i]
		switch l := l.(type) {
		case *nn.Conv2D:
			g, err := convGeom(in[0], in[1], in[2], in[3], l.OutChannels(), l.Kernel(), in[2]/out[2])
			if err != nil {
				return nil, nil, fmt.Errorf("layer %s: %w", l.Name(), err)
			}
			addConv(g)
		case *nn.Dense:
			ks = append(ks, denseKernels(in[0], in[1], out[1])...)
		case *nn.BatchNorm:
			ks = append(ks, rowSums(in[1], in[0]*in[2]*in[3], 4)...)
		case *nn.GlobalAvgPool:
			ks = append(ks, rowSums(in[0]*in[1], in[2]*in[3], 1)...)
		case *nn.Residual:
			n, c, h, w := in[0], in[1], in[2], in[3]
			stride := h / out[2]
			cur, ch, cw, first := c, h, w, true
			var last tensor.ConvGeom
			check := func() error {
				if last.OutC != out[1] || last.OutH() != out[2] || last.OutW() != out[3] {
					return fmt.Errorf("block %s: recovered branch ends at %dx%dx%d, block output is %v", l.Name(), last.OutC, last.OutH(), last.OutW(), out)
				}
				return nil
			}
			for _, p := range l.Params() {
				s := p.Value.Shape()
				if len(s) == 1 {
					if strings.HasSuffix(p.Name, "/gamma") && last.Batch > 0 {
						ks = append(ks, rowSums(s[0], n*last.OutH()*last.OutW(), 4)...)
					}
					continue
				}
				o, r := s[0], s[1]
				k := int(math.Round(math.Sqrt(float64(r) / float64(cur))))
				if r%cur != 0 || k*k*cur != r {
					// Not a continuation of the chain: the shortcut starts
					// again from the block input.
					if err := check(); err != nil {
						return nil, nil, err
					}
					cur, ch, cw, first = c, h, w, true
					k = int(math.Round(math.Sqrt(float64(r) / float64(cur))))
					if k*k*cur != r {
						return nil, nil, fmt.Errorf("block %s param %s: shape %v fits neither the chain nor the block input", l.Name(), p.Name, s)
					}
				}
				cs := 1
				if first {
					cs = stride
				}
				g, err := convGeom(n, cur, ch, cw, o, k, cs)
				if err != nil {
					return nil, nil, fmt.Errorf("block %s param %s: %w", l.Name(), p.Name, err)
				}
				addConv(g)
				last = g
				cur, ch, cw, first = o, g.OutH(), g.OutW(), false
			}
			if err := check(); err != nil {
				return nil, nil, err
			}
		}
	}
	logits := st.outShape[len(st.outShape)-1]
	losses := filled(logits[0])
	ks = append(ks, kernel{"reduce", 0, func(d *device.Device) { d.ReduceSum(losses.Data()) }})
	return ks, geoms, nil
}

// kernelClasses are the device kernel families replayed per mode.
var kernelClasses = []string{"gemm", "im2col_gemm", "im2col_gemm_t", "col2im", "reduce"}

// kernelTimes replays one step's launches of each kernel class on a fresh
// device in the given mode until at least 50ms of kernel time has been
// measured, and returns milliseconds per step by class plus the GEMM
// classes' GFLOP/s.
func kernelTimes(ks []kernel, cfg device.Config, mode device.Mode) (map[string]float64, float64) {
	dev := device.New(cfg, mode, entropyFor(mode))
	ws := tensor.NewWorkspace()
	dev.SetWorkspace(ws)
	perStep := map[string]float64{}
	var gemmFlops, gemmTime float64
	for _, class := range kernelClasses {
		var total time.Duration
		var flops float64
		reps := 0
		for reps < 3 || total < 50*time.Millisecond {
			for _, k := range ks {
				if k.class != class {
					continue
				}
				t := time.Now()
				k.run(dev)
				total += time.Since(t)
				flops += k.flops
				ws.Reset()
			}
			reps++
			if total == 0 && reps >= 3 {
				break // the step launches nothing of this class
			}
		}
		perStep[class] = ms(total) / float64(reps)
		if flops > 0 {
			gemmFlops += flops
			gemmTime += total.Seconds()
		}
	}
	return perStep, gemmFlops / gemmTime / 1e9
}

// im2colTime is the materialized tensor.Im2Col of every convolution of a
// step, in milliseconds per step.
func im2colTime(geoms []tensor.ConvGeom) float64 {
	type job struct {
		x, dst *tensor.Tensor
		g      tensor.ConvGeom
	}
	var js []job
	for _, g := range geoms {
		js = append(js, job{filled(g.Batch, g.InC, g.InH, g.InW), tensor.New(g.ColRows(), g.ColCols()), g})
	}
	var total time.Duration
	reps := 0
	for reps < 3 || total < 50*time.Millisecond {
		for _, j := range js {
			t := time.Now()
			tensor.Im2Col(j.x, j.g, j.dst)
			total += time.Since(t)
		}
		reps++
		if len(js) == 0 {
			break
		}
	}
	return ms(total) / float64(reps)
}

// traceLayers runs the per-layer probes of a traced run: the traced step
// loop on one replica the workload trained, the device kernels replayed
// on that step's shapes, and the ledger and checkpoint codecs on every
// replica the workload trained.
func traceLayers(rep *runReport, w *workload, units []unitSpan, ledgerDir, root string) error {
	var target *unitSpan
	for i := range units {
		u := units[i].unit
		if u.Task == w.traceTask && u.Device == "V100" && u.Variant == "IMPL" && u.Replica == 0 {
			target = &units[i]
			break
		}
	}
	if target == nil {
		return fmt.Errorf("no IMPL replica 0 of %s on V100 to trace", w.traceTask)
	}
	st, err := traceUnit(target.unit)
	if err != nil {
		return err
	}
	var parity error
	switch {
	case !st.untraced.Equal(target.res):
		parity = fmt.Errorf("core.RunReplica on the rebuilt config differs from the replica the server trained")
	case !st.trace.Equal(st.untraced):
		parity = fmt.Errorf("traced loop's RunResult differs from core.RunReplica's")
	}
	rep.check("traced step loop reproduces core.RunReplica bit for bit", parity)
	steps := float64(st.steps)
	var allocErr error
	if st.allocSteps == 0 || st.allocs != 0 {
		allocErr = fmt.Errorf("%d allocations over %d warm steps", st.allocs, st.allocSteps)
	}
	rep.check("warm traced step allocates nothing", allocErr)
	var sumErr error
	if gap := (st.step - st.parts()).Seconds() / st.step.Seconds(); gap < 0 || gap > 0.1 {
		sumErr = fmt.Errorf("timed parts sum to %.1f%% of the step", 100*st.parts().Seconds()/st.step.Seconds())
	}
	rep.check("per-layer times sum to within a tenth of the step", sumErr)

	perStep := func(d time.Duration) float64 { return ms(d) / steps }
	rep.layer["core.step_ms"] = perStep(st.step)
	rep.layer["core.step_allocs"] = float64(st.allocs) / float64(max(st.allocSteps, 1))
	rep.layer["data.next_wait_us"] = perStep(st.next) * 1000
	rep.layer["nn.zero_grad_us"] = perStep(st.zeroGrad) * 1000
	rep.layer["nn.loss_ms"] = perStep(st.loss)
	rep.layer["opt.sgd_step_ms"] = perStep(st.sgd)
	rep.layer["tensor.ws_reset_us"] = perStep(st.wsReset) * 1000
	for _, c := range layerClasses {
		rep.layer["nn."+c+".fwd_ms"] = perStep(st.fwd[c])
		rep.layer["nn."+c+".bwd_ms"] = perStep(st.bwd[c])
	}
	rep.layer["device.launches_per_step"] = float64(st.launches) / steps
	rep.layer["trace.overhead_s"] = (st.tracedWall - st.untracedWall).Seconds()
	rep.samples["traced_steps"] = st.steps

	ks, geoms, err := stepKernels(st)
	if err != nil {
		return err
	}
	var launchErr error
	if want := float64(st.launches) / steps; float64(len(ks)) != want {
		launchErr = fmt.Errorf("recovered %d kernels per step, the traced step launched %g", len(ks), want)
	}
	rep.check("replayed kernels are exactly one traced step's launches", launchErr)
	for _, mode := range []device.Mode{device.Default, device.Deterministic} {
		times, gflops := kernelTimes(ks, st.cfg.Device, mode)
		for class, t := range times {
			rep.layer["device."+class+"_ms."+mode.String()] = t
		}
		rep.layer["device.gemm_gflops."+mode.String()] = gflops
	}
	rep.layer["tensor.im2col_ms"] = im2colTime(geoms)
	return codecLayers(rep, units, ledgerDir, root)
}

// codecLayers times the replica ledger and the checkpoint codec on every
// replica the workload trained: reopening the workload's ledger, the
// first (disk) read of each record, writes into a fresh ledger, and
// encoding and decoding each record.
func codecLayers(rep *runReport, units []unitSpan, ledgerDir, root string) error {
	var opens []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, err := ledger.Open(ledgerDir, 0); err != nil {
			return err
		}
		opens = append(opens, ms(time.Since(t)))
	}
	rep.layer["ledger.open_ms"] = median(opens)

	led, err := ledger.Open(ledgerDir, 0)
	if err != nil {
		return err
	}
	var gets []float64
	for _, u := range units {
		t := time.Now()
		res, ok := led.Get(u.unit.Cell, u.unit.Replica)
		gets = append(gets, ms(time.Since(t)))
		if !ok || !res.Equal(u.res) {
			return fmt.Errorf("reopened ledger does not serve %s replica %d intact", u.unit.Cell, u.unit.Replica)
		}
	}
	rep.layer["ledger.get_disk_ms"] = mean(gets)

	dir, err := os.MkdirTemp(root, "put-*")
	if err != nil {
		return err
	}
	fresh, err := ledger.Open(filepath.Join(dir, "ledger"), 0)
	if err != nil {
		return err
	}
	var puts []float64
	for _, u := range units {
		t := time.Now()
		if err := fresh.Put(u.unit.Cell, u.unit.Replica, u.res); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	rep.layer["ledger.put_ms"] = mean(puts)

	var enc, dec, size []float64
	for start := time.Now(); len(enc) < len(units) || time.Since(start) < 100*time.Millisecond; {
		u := units[len(enc)%len(units)]
		var buf bytes.Buffer
		t := time.Now()
		if err := checkpoint.EncodeResult(&buf, u.unit.Cell, u.res); err != nil {
			return err
		}
		enc = append(enc, ms(time.Since(t)))
		size = append(size, float64(buf.Len()))
		t = time.Now()
		cell, res, err := checkpoint.DecodeResult(&buf)
		dec = append(dec, ms(time.Since(t)))
		if err != nil {
			return err
		}
		if cell != u.unit.Cell || !res.Equal(u.res) {
			return fmt.Errorf("checkpoint round trip changed %s replica %d", u.unit.Cell, u.unit.Replica)
		}
	}
	rep.layer["checkpoint.encode_ms"] = mean(enc)
	rep.layer["checkpoint.decode_ms"] = mean(dec)
	rep.layer["checkpoint.record_bytes"] = mean(size)
	return nil
}
