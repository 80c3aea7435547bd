package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/server"
)

const (
	taskSmall   = "SmallCNN CIFAR-10"
	taskSmallBN = "SmallCNN+BN CIFAR-10"
	taskResNet  = "ResNet18 CIFAR-10"
)

// metricHeaders is the column each selectable grid metric renders as;
// a fetched result must carry exactly the requested columns.
var metricHeaders = map[string]string{
	"acc":           "acc(%)",
	"stddev_acc":    "stddev(acc)",
	"churn":         "churn(%)",
	"l2":            "l2",
	"max_class_std": "max per-class stddev",
}

// subSpace is the universe the warm phase draws sub-grids from: non-empty
// subsets of each axis (kept in the order listed here, so each subset has
// one spelling and one result key), any metric subset, and a replica
// count in [minReps, maxReps] — all over cells the workload has trained.
type subSpace struct {
	tasks, devices, variants []string
	recipes                  []grid.Recipe
	minReps, maxReps         int
}

// workload is one named benchmark input. Every workload has a cold phase
// (the grids that train) and a warm phase (closed-loop sub-grids over the
// trained cells, all ledger hits).
type workload struct {
	name string
	// cold lists the training grids, submitted one after another.
	cold []grid.Spec
	// coldReplicas is the replica count the cold grids run at.
	coldReplicas int
	// trains is how many replicas the cold grids must train in total.
	trains int
	// pretrain moves the cold phase into set-up: train, close the server,
	// and reopen it over the same ledger with an empty result store.
	pretrain bool
	warm     subSpace
	// traceTask picks the replica the traced step loop re-trains: the
	// first IMPL replica 0 on V100 of this task.
	traceTask string
}

var workloads = []*workload{
	{
		name: "cold-grid",
		cold: []grid.Spec{{
			Tasks:    []string{taskSmall, taskSmallBN},
			Devices:  []string{"V100", "TPUv2"},
			Variants: []string{"IMPL", "CONTROL"},
		}},
		coldReplicas: 4,
		trains:       32,
		warm: subSpace{
			tasks:    []string{taskSmall, taskSmallBN},
			devices:  []string{"V100", "TPUv2"},
			variants: []string{"IMPL", "CONTROL"},
			minReps:  2, maxReps: 4,
		},
		traceTask: taskSmallBN,
	},
	{
		name: "deep-cell",
		cold: []grid.Spec{
			{Tasks: []string{taskResNet}, Devices: []string{"V100"}, Variants: []string{"IMPL"}},
			{Tasks: []string{taskResNet}, Devices: []string{"V100"}, Variants: []string{"CONTROL"}},
		},
		coldReplicas: 1,
		trains:       2,
		warm: subSpace{
			tasks:    []string{taskResNet},
			devices:  []string{"V100"},
			variants: []string{"IMPL", "CONTROL"},
			minReps:  1, maxReps: 1,
		},
		traceTask: taskResNet,
	},
	{
		name: "warm-restart",
		cold: []grid.Spec{{
			Tasks:    []string{taskSmall, taskSmallBN},
			Devices:  []string{"V100", "P100", "TPUv2"},
			Variants: []string{"ALGO+IMPL", "ALGO", "IMPL", "CONTROL", "DATA-ORDER"},
			Recipes:  []grid.Recipe{{Epochs: 1}},
		}},
		coldReplicas: 6,
		trains:       180,
		pretrain:     true,
		warm: subSpace{
			tasks:    []string{taskSmall, taskSmallBN},
			devices:  []string{"V100", "P100", "TPUv2"},
			variants: []string{"ALGO+IMPL", "ALGO", "IMPL", "CONTROL", "DATA-ORDER"},
			recipes:  []grid.Recipe{{Epochs: 1}},
			minReps:  2, maxReps: 6,
		},
		traceTask: taskSmallBN,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

func (w *workload) coldRequests(expSeed uint64) []server.GridRequest {
	out := make([]server.GridRequest, len(w.cold))
	for i, spec := range w.cold {
		out[i] = server.GridRequest{Grid: spec, RunRequest: server.RunRequest{Scale: "test", Replicas: w.coldReplicas, Seed: expSeed}}
	}
	return out
}

// subset draws a non-empty subset of xs, keeping xs's order.
func subset(r *rng.Stream, xs []string) []string {
	for {
		var out []string
		for _, x := range xs {
			if r.Intn(2) == 1 {
				out = append(out, x)
			}
		}
		if len(out) > 0 {
			return out
		}
	}
}

// poolSize bounds the distinct sub-grids a warm phase cycles through. It
// exceeds the result store's default capacity (64), so the store both
// serves repeats and evicts.
const poolSize = 256

// warmPool draws up to poolSize distinct sub-grid requests from the
// workload's sub-space, deterministically from the seed.
func (w *workload) warmPool(r *rng.Stream, expSeed uint64) []server.GridRequest {
	metricNames := experiments.MetricNames()
	seen := map[string]bool{}
	var pool []server.GridRequest
	for attempt := 0; len(pool) < poolSize && attempt < 50*poolSize; attempt++ {
		spec := grid.Spec{
			Tasks:    subset(r, w.warm.tasks),
			Devices:  subset(r, w.warm.devices),
			Variants: subset(r, w.warm.variants),
			Recipes:  w.warm.recipes,
			Metrics:  subset(r, metricNames),
		}
		reps := w.warm.minReps + r.Intn(w.warm.maxReps-w.warm.minReps+1)
		id := fmt.Sprintf("%s-r%d", spec.ID(), reps)
		if seen[id] {
			continue
		}
		seen[id] = true
		pool = append(pool, server.GridRequest{Grid: spec, RunRequest: server.RunRequest{Scale: "test", Replicas: reps, Seed: expSeed}})
	}
	return pool
}

// checkColumns verifies a sub-grid result carries exactly the requested
// metric columns and one row per requested cell.
func checkColumns(req server.GridRequest, out jobOutcome) error {
	res := out.result.Result
	if len(res.Tables) != 1 {
		return fmt.Errorf("result %s: %d tables, want 1", out.key, len(res.Tables))
	}
	tb := res.Tables[0]
	want := []string{"task", "device", "variant"}
	if len(req.Grid.Recipes) > 0 {
		want = append(want, "recipe")
	}
	for _, m := range req.Grid.Metrics {
		want = append(want, metricHeaders[m])
	}
	if strings.Join(tb.Headers, "|") != strings.Join(want, "|") {
		return fmt.Errorf("result %s: columns %q, want %q", out.key, tb.Headers, want)
	}
	cells := map[string]bool{}
	for _, t := range req.Grid.Tasks {
		for _, d := range req.Grid.Devices {
			for _, v := range req.Grid.Variants {
				cells[t+"|"+d+"|"+v] = true
			}
		}
	}
	for _, row := range tb.Rows {
		id := row[0].Str + "|" + row[1].Str + "|" + row[2].Str
		if !cells[id] {
			return fmt.Errorf("result %s: unexpected or repeated row %s", out.key, id)
		}
		delete(cells, id)
	}
	if len(cells) > 0 {
		return fmt.Errorf("result %s: %d requested cells missing", out.key, len(cells))
	}
	return nil
}

// checkControl verifies every CONTROL row of a cold result reports zero
// churn and zero weight distance: the paper's bitwise-reproducibility
// claim.
func checkControl(out jobOutcome) error {
	for _, tb := range out.result.Result.Tables {
		churn, l2 := -1, -1
		for i, h := range tb.Headers {
			switch h {
			case metricHeaders["churn"]:
				churn = i
			case metricHeaders["l2"]:
				l2 = i
			}
		}
		for _, row := range tb.Rows {
			if row[2].Str != "CONTROL" {
				continue
			}
			if churn < 0 || l2 < 0 {
				return fmt.Errorf("result %s: no churn or l2 column", out.key)
			}
			if row[churn].Float != 0 || row[l2].Float != 0 {
				return fmt.Errorf("result %s: CONTROL row %s/%s reports churn %v, l2 %v; want 0 and 0",
					out.key, row[0].Str, row[1].Str, row[churn].Float, row[l2].Float)
			}
		}
	}
	return nil
}

// jobTiming is when one submission was sent and seen done. A warm job's
// result is checked and dropped as soon as it is fetched.
type jobTiming struct {
	key        string
	cached     bool
	sent, done time.Time
}

// warmPhase runs clients closed-loop for dur: each draws a sub-grid
// uniformly from the pool (which outnumbers the result store, so draws
// both hit and evict), submits it, polls it to done, fetches the result
// and passes it to verify.
func warmPhase(in *instance, t *tally, pool []server.GridRequest, seed uint64, clients int, dur time.Duration,
	verify func(server.GridRequest, jobOutcome) error) ([]jobTiming, time.Duration) {
	var mu sync.Mutex
	var done []jobTiming
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		r := rng.New(seed).Split("warm-client").SplitIndex(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < dur {
				req := pool[r.Intn(len(pool))]
				out, err := in.cl.runJob(t, req)
				if err != nil {
					continue
				}
				if err := verify(req, out); err != nil {
					t.fail(err)
					continue
				}
				mu.Lock()
				done = append(done, jobTiming{key: out.key, cached: out.cached, sent: out.sent, done: out.done})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return done, time.Since(start)
}
