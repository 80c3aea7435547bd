package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/data"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// setupRepeats is how many times a run brings its server up; set-up time
// is the median.
const setupRepeats = 31

// warmClients is the closed loop's client count: two, or fewer on a host
// with fewer cores.
var warmClients = min(2, runtime.NumCPU())

// runOptions are one invocation's settings.
type runOptions struct {
	w       *workload
	seed    uint64
	seconds float64
	trace   bool
	root    string // scratch directory for this run's stores and ledgers
	digests *digestBook
	// startup is the process's own start-up, counted into set-up time.
	startup time.Duration
}

// check is one named correctness or books-balance verdict.
type check struct {
	name string
	err  error
}

// runReport is everything one run measured.
type runReport struct {
	e2e, layer map[string]float64
	samples    map[string]int
	checks     []check
	errs       []string // the first failed operations, for the report
	attempted  int64
	failed     int64
}

func (r *runReport) check(name string, err error) { r.checks = append(r.checks, check{name, err}) }

// bringUp starts the server n times with start, closing all but the last,
// and returns the last instance with the median time to ready.
func bringUp(n int, start func() (*instance, error)) (*instance, time.Duration, error) {
	var times []float64
	var in *instance
	for i := 0; i < n; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, 0, err
			}
		}
		t := time.Now()
		var err error
		if in, err = start(); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t).Seconds())
	}
	return in, time.Duration(median(times) * float64(time.Second)), nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runCold submits the cold grids one after another and checks each
// result: CONTROL cells must be bitwise reproducible.
func runCold(in *instance, t *tally, reqs []server.GridRequest) ([]jobOutcome, error) {
	var outs []jobOutcome
	for _, req := range reqs {
		out, err := in.cl.runJob(t, req)
		if err != nil {
			return outs, err
		}
		if err := checkControl(out); err != nil {
			t.fail(err)
			return outs, err
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// books balances one server's counters against what the client sent and
// what the hooks saw, and returns the server's final stats and metrics.
func books(rep *runReport, label string, in *instance) (server.StatsResponse, server.MetricsResponse) {
	var stats server.StatsResponse
	var met server.MetricsResponse
	_, _, err := in.cl.do("GET", "/v1/stats", "/v1/stats", nil, &stats)
	if err == nil {
		_, _, err = in.cl.do("GET", "/v1/metrics", "/v1/metrics", nil, &met)
	}
	if err != nil {
		rep.check(label+": books readable", err)
		return stats, met
	}
	// The /v1/metrics request itself is still in flight while its
	// snapshot is taken, so the server has not counted it yet.
	sent := in.cl.routeCounts()
	sent["GET /v1/metrics"]--
	served := map[string]int64{}
	for _, r := range met.Routes {
		served[r.Route] = r.Requests
	}
	var diffs []string
	for _, route := range unionKeys(sent, served) {
		if sent[route] != served[route] {
			diffs = append(diffs, fmt.Sprintf("%s sent %d served %d", route, sent[route], served[route]))
		}
	}
	rep.check(label+": client request counts equal /v1/metrics per route", errorsFrom(diffs))

	plans, units := in.rec.snapshot()
	requested := 0
	for _, p := range plans {
		requested += p.requested
	}
	// A miss is probed twice: once by the population pass and once more
	// under the flight lock before it trains.
	led := stats.Ledger
	var err2 error
	if led.Hits+led.Misses != int64(requested)+led.Trains {
		err2 = fmt.Errorf("ledger hits %d + misses %d != replicas requested %d + trains %d", led.Hits, led.Misses, requested, led.Trains)
	}
	rep.check(label+": ledger lookups equal replicas the plans requested", err2)
	err2 = nil
	if int64(len(units)) != led.Trains {
		err2 = fmt.Errorf("executor calls %d != ledger trains %d", len(units), led.Trains)
	}
	rep.check(label+": executor calls equal ledger trains", err2)
	return stats, met
}

func unionKeys(a, b map[string]int64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range []map[string]int64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

func errorsFrom(msgs []string) error {
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("%v", msgs)
}

// mergedQuantile is the p-quantile in ms of the union of telemetry
// latency histograms, interpolated within the bucket the rank falls in
// the way the telemetry package derives its own percentiles.
func mergedQuantile(hs []telemetry.HistogramSnapshot, p float64) float64 {
	edges := telemetry.DefaultBuckets
	counts := make([]int64, len(edges))
	var total int64
	for _, h := range hs {
		for _, b := range h.Buckets {
			for i, e := range edges {
				if ms(e) == b.LEMillis {
					counts[i] += b.Count
					total += b.Count
					break
				}
			}
		}
	}
	rank := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < rank {
			cum += float64(c)
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = ms(edges[i-1])
		}
		return lo + (ms(edges[i])-lo)*(rank-cum)/float64(c)
	}
	return 0
}

func route(met server.MetricsResponse, name string) telemetry.RouteSnapshot {
	for _, r := range met.Routes {
		if r.Route == name {
			return r
		}
	}
	return telemetry.RouteSnapshot{}
}

// benchRun is one benchmark run's state, filled in phase by phase.
type benchRun struct {
	o   runOptions
	rep *runReport

	setup time.Duration
	// cold is the server the training grids ran on; measured is the one
	// the warm phase ran on (the same server unless the workload
	// pre-trains and restarts).
	cold, measured *instance
	coldOuts       []jobOutcome
	coldUnits      []unitSpan
	warm           []jobTiming
	warmDur        time.Duration
	warmUnits      int // replicas trained during the warm phase
	// The measured window covers the cold (unless it ran in set-up) and
	// warm phases, and excludes set-up.
	measureStart         time.Time
	cpu0                 time.Duration
	wall, cpu            time.Duration
	setupT, coldT, warmT *tally
	stats                server.StatsResponse
	met                  server.MetricsResponse
}

// runWorkload executes one benchmark run: set-up, the cold and warm
// phases, the end-of-run checks and, when tracing, the per-layer probes.
func runWorkload(o runOptions) (*runReport, error) {
	r := &benchRun{
		o:      o,
		rep:    &runReport{e2e: map[string]float64{}, layer: map[string]float64{}, samples: map[string]int{}},
		setupT: &tally{}, coldT: &tally{}, warmT: &tally{},
	}
	seeds := rng.New(o.seed)
	expSeed := seeds.Split("experiment").Uint64()>>1 | 1
	if err := r.setUpAndCold(expSeed); err != nil {
		return nil, err
	}
	if err := r.warmUp(seeds.Split("pool"), expSeed); err != nil {
		return nil, err
	}
	r.endToEnd()
	r.spanLayers()
	if o.trace {
		if err := traceLayers(r.rep, o.w, r.coldUnits, r.cold.ledgerDir, o.root); err != nil {
			r.rep.check("traced probes", err)
		}
	}
	return r.rep, nil
}

// setUpAndCold brings the server up and runs the training grids: after
// set-up, or inside it when the workload pre-trains and restarts over the
// ledger with an empty result store. The measured window opens after
// set-up.
func (r *benchRun) setUpAndCold(expSeed uint64) error {
	w, rep := r.o.w, r.rep
	reqs := w.coldRequests(expSeed)
	fresh := func() (*instance, error) {
		store, led, err := freshDirs(r.o.root)
		if err != nil {
			return nil, err
		}
		return startInstance(store, led)
	}
	var err error
	if !w.pretrain {
		if r.measured, r.setup, err = bringUp(setupRepeats, fresh); err != nil {
			return err
		}
		r.setup += r.o.startup
		r.measureStart, r.cpu0 = time.Now(), cpuTime()
		r.cold = r.measured
		if r.coldOuts, err = runCold(r.cold, r.coldT, reqs); err != nil {
			rep.check("cold phase", err)
		}
	} else {
		start := time.Now()
		if r.cold, err = fresh(); err != nil {
			return err
		}
		if r.coldOuts, err = runCold(r.cold, r.setupT, reqs); err != nil {
			rep.check("pre-training", err)
		}
		books(rep, "pre-training server", r.cold)
		if err := r.cold.close(); err != nil {
			return err
		}
		pre := time.Since(start)
		var reopen time.Duration
		r.measured, reopen, err = bringUp(setupRepeats, func() (*instance, error) {
			store, _, err := freshDirs(r.o.root)
			if err != nil {
				return nil, err
			}
			return startInstance(store, r.cold.ledgerDir)
		})
		if err != nil {
			return err
		}
		r.setup = r.o.startup + pre + reopen
		r.measureStart, r.cpu0 = time.Now(), cpuTime()
	}
	_, r.coldUnits = r.cold.rec.snapshot()
	var trainErr error
	if len(r.coldUnits) != w.trains {
		trainErr = fmt.Errorf("trained %d replicas, want %d", len(r.coldUnits), w.trains)
	}
	rep.check("cold phase trains exactly the grid's replicas", trainErr)
	var digests []string
	for _, out := range r.coldOuts {
		digests = append(digests, tableDigest(out.result.Result))
	}
	rep.check("cold result tables repeat for this seed",
		r.o.digests.match("cold", fmt.Sprint(digests)))
	return nil
}

// warmUp runs the warm phase on the measured server, closes the measured
// window, balances the books and shuts the server down.
func (r *benchRun) warmUp(poolSeed *rng.Stream, expSeed uint64) error {
	w, in := r.o.w, r.measured
	pool := w.warmPool(poolSeed, expSeed)
	_, before := in.rec.snapshot()
	verify := func(req server.GridRequest, out jobOutcome) error {
		if err := checkColumns(req, out); err != nil {
			return err
		}
		return r.o.digests.match(out.key, tableDigest(out.result.Result))
	}
	// The warm phase starts from a collected heap, so it does not pay for
	// the cold phase's garbage.
	runtime.GC()
	r.warm, r.warmDur = warmPhase(in, r.warmT, pool, r.o.seed, warmClients, time.Duration(r.o.seconds*float64(time.Second)), verify)
	r.wall, r.cpu = time.Since(r.measureStart), cpuTime()-r.cpu0
	r.stats, r.met = books(r.rep, "measured server", in)
	_, after := in.rec.snapshot()
	r.warmUnits = len(after) - len(before)
	var err error
	if led := r.stats.Ledger; r.warmUnits != 0 || (w.pretrain && (led.Misses != 0 || led.Trains != 0)) {
		err = fmt.Errorf("warm phase trained %d replicas; ledger misses %d, trains %d", r.warmUnits, led.Misses, led.Trains)
	}
	r.rep.check("warm phase trains nothing", err)
	return in.close()
}

// endToEnd fills in the end-to-end metrics and the operation counts.
func (r *benchRun) endToEnd() {
	rep := r.rep
	var jobS float64
	for _, out := range r.coldOuts {
		jobS += out.done.Sub(out.sent).Seconds()
	}
	var samples float64
	splits := map[string]int{}
	for _, u := range r.coldUnits {
		if _, ok := splits[u.unit.Scale]; !ok {
			splits[u.unit.Scale] = trainSplit(u.unit.Scale)
		}
		samples += float64(u.unit.Epochs * splits[u.unit.Scale])
	}
	var warmMS []float64
	for _, j := range r.warm {
		if !j.cached {
			warmMS = append(warmMS, ms(j.done.Sub(j.sent)))
		}
	}
	for _, t := range []*tally{r.setupT, r.coldT, r.warmT} {
		rep.attempted += t.ops
		rep.failed += t.failed
		rep.errs = append(rep.errs, t.errs...)
	}
	rep.e2e["setup_s"] = r.setup.Seconds()
	rep.e2e["job_s"] = jobS
	rep.e2e["samples_per_s"] = samples / jobS
	rep.e2e["warm_job_ms_p50"] = quantile(warmMS, 0.50)
	rep.e2e["warm_job_ms_p99"] = quantile(warmMS, 0.99)
	rep.e2e["read_ms_p50"] = quantile(r.warmT.reads, 0.50)
	rep.e2e["read_ms_p99"] = quantile(r.warmT.reads, 0.99)
	rep.e2e["ops_per_s"] = float64(r.warmT.ops) / r.warmDur.Seconds()
	rep.e2e["peak_rss_mb"] = peakRSSMB()
	rep.samples["setup_repeats"] = setupRepeats
	rep.samples["cold_jobs"] = len(r.coldOuts)
	rep.samples["trained_replicas"] = len(r.coldUnits)
	rep.samples["warm_jobs_run"] = len(warmMS)
	rep.samples["warm_jobs_store_cached"] = len(r.warm) - len(warmMS)
	rep.samples["warm_reads"] = len(r.warmT.reads)
	rep.samples["warm_ops"] = int(r.warmT.ops)
}

// spanLayers fills in the per-layer metrics that come from the server's
// counters and the hooks' spans. The job-level spans are those of the
// workload's primary jobs: the training grids, or on a pre-training
// workload the warm jobs that ran.
func (r *benchRun) spanLayers() {
	rep, stats, met := r.rep, r.stats, r.met
	rep.layer["server.grid_post_ms_p50"] = route(met, "POST /v1/grid").Latency.P50Millis
	rep.layer["server.read_ms_p99"] = mergedQuantile([]telemetry.HistogramSnapshot{
		route(met, "GET /v1/jobs/{id}").Latency, route(met, "GET /v1/results/{key}").Latency}, 0.99)
	rep.layer["server.rejected"] = float64(met.Requests.Rejected)
	rep.layer["server.errors_5xx"] = float64(met.Requests.Errors5xx)
	rep.layer["jobs.store_hits"] = float64(stats.Store.Hits)
	rep.layer["jobs.store_misses"] = float64(stats.Store.Misses)
	rep.layer["ledger.hits"] = float64(stats.Ledger.Hits)
	rep.layer["ledger.misses"] = float64(stats.Ledger.Misses)
	rep.layer["ledger.trains"] = float64(stats.Ledger.Trains)

	var primary []jobTiming
	inst := r.cold
	for _, out := range r.coldOuts {
		primary = append(primary, jobTiming{key: out.key, sent: out.sent, done: out.done})
	}
	if r.o.w.pretrain {
		primary, inst = nil, r.measured
		for _, j := range r.warm {
			if !j.cached {
				primary = append(primary, j)
			}
		}
	}
	plans, _ := inst.rec.snapshot()
	var spans [][2]time.Time
	for _, u := range r.coldUnits {
		spans = append(spans, [2]time.Time{u.start, u.end})
	}
	var queueWait, finish, runPlan, self []float64
	for _, j := range primary {
		p, ok := planFor(plans, j)
		if !ok {
			continue
		}
		if !p.start.Before(j.sent) {
			queueWait = append(queueWait, ms(p.start.Sub(j.sent)))
		}
		finish = append(finish, ms(j.done.Sub(p.end)))
		runPlan = append(runPlan, ms(p.end.Sub(p.start)))
		self = append(self, ms(p.end.Sub(p.start)-spanUnion(p.start, p.end, spans)))
	}
	rep.layer["jobs.queue_wait_ms_p50"] = quantile(queueWait, 0.50)
	rep.layer["jobs.queue_wait_ms_p99"] = quantile(queueWait, 0.99)
	rep.layer["jobs.finish_ms_p50"] = quantile(finish, 0.50)
	rep.layer["experiments.run_plan_ms"] = median(runPlan)
	rep.layer["experiments.self_ms"] = median(self)
	rep.layer["experiments.train_units"] = float64(len(r.coldUnits) + r.warmUnits)
	rep.samples["primary_jobs"] = len(primary)

	var replicaS, implS, controlS []float64
	for _, u := range r.coldUnits {
		d := u.end.Sub(u.start).Seconds()
		replicaS = append(replicaS, d)
		switch u.unit.Variant {
		case "IMPL":
			implS = append(implS, d)
		case "CONTROL":
			controlS = append(controlS, d)
		}
	}
	rep.layer["core.replica_s_p50"] = median(replicaS)
	rep.layer["core.replica_s_max"] = maxOf(replicaS)
	rep.layer["device.det_overhead_pct"] = (mean(controlS)/mean(implS) - 1) * 100
	rep.layer["sched.cpu_busy_ratio"] = r.cpu.Seconds() / (r.wall.Seconds() * float64(sched.Workers()))
}

// planFor finds the RunPlan span that completed job j: the last run of
// its key that ended between its submission and its observed completion.
func planFor(plans []planSpan, j jobTiming) (planSpan, bool) {
	var best planSpan
	found := false
	for _, p := range plans {
		if p.key == j.key && !p.end.Before(j.sent) && !p.end.After(j.done) && (!found || p.end.After(best.end)) {
			best, found = p, true
		}
	}
	return best, found
}

// trainSplit is the training-split size of the CIFAR-10 stand-in at a scale.
func trainSplit(scale string) int {
	s, err := data.ParseScale(scale)
	if err != nil {
		return 0
	}
	return data.CIFAR10Like(s).Train.N()
}
