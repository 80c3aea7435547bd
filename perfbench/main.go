// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process nnrand server with an on-disk result
// store and replica ledger, drives it over loopback HTTP from a closed
// loop of clients, checks every output, and prints the measured metrics.
//
//	bash perfbench/run.sh --workload cold-grid --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. The
// metric names and units come from BENCHMARK.json at the repository root,
// and the run fails if it does not produce every one of them. What each
// workload exercises and what each per-layer metric should move is in
// rationale.json.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/device"
	"repro/internal/sched"
)

// buildDir holds everything building and running the benchmark leaves
// behind, relative to the repository root.
const buildDir = ".bench_build"

//go:embed rationale.json
var rationaleJSON []byte

// rationale records why each workload exists and, per per-layer metric,
// how it is measured and which end-to-end metric it should move.
type rationale struct {
	HeldOutSeed uint64                     `json:"held_out_seed"`
	Workloads   map[string]json.RawMessage `json:"workloads"`
	PerLayer    map[string]json.RawMessage `json:"per_layer"`
}

// metricSpec is one metric entry of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func main() { os.Exit(run()) }

func run() int {
	startup := processStartup()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+")")
	seed := fl.Uint64("seed", 0, "workload seed: the same seed generates the same requests")
	seconds := fl.Float64("seconds", 10, "length of the warm closed-loop phase")
	trace := fl.Int("trace", 0, "0 prints end-to-end metrics, 1 runs the per-layer probes and prints those")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if err := runMain(startup, *name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// processStartup is how long the process took to reach main: exec,
// runtime start and package initialization. run.sh records the exec time
// in PERFBENCH_EXEC_US (Unix microseconds); without it the count starts
// at main.
func processStartup() time.Duration {
	now := time.Now()
	us, err := strconv.ParseInt(os.Getenv("PERFBENCH_EXEC_US"), 10, 64)
	if err != nil {
		return 0
	}
	d := now.Sub(time.UnixMicro(us))
	if d < 0 || d > time.Minute {
		return 0
	}
	return d
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func runMain(startup time.Duration, name string, seed uint64, seconds float64, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds > 0 and --trace 0 or 1")
	}
	bench, why, err := loadSpecs()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(buildDir, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)
	source := sourceDigest()
	digests, err := openDigests(filepath.Join(buildDir, "digests", fmt.Sprintf("%s-%s-%d.json", source, w.name, seed)))
	if err != nil {
		return err
	}

	prov := provenance(seed, why.HeldOutSeed, source)
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d\n", w.name, seed, seconds, trace)
	fmt.Printf("provenance %s\n", mustJSON(prov))
	rep, err := runWorkload(runOptions{w: w, seed: seed, seconds: seconds, trace: trace == 1, root: root, digests: digests, startup: startup})
	if err != nil {
		return err
	}
	if err := digests.save(); err != nil {
		return err
	}

	wanted := bench.EndToEnd
	have := rep.e2e
	if trace == 1 {
		wanted, have = bench.PerLayer, rep.layer
	}
	for _, m := range wanted {
		if v, ok := have[m.Name]; ok && (math.IsNaN(v) || math.IsInf(v, 0)) {
			rep.check("metric "+m.Name+" measured", fmt.Errorf("no samples"))
			have[m.Name] = 0
		}
	}
	failedChecks := 0
	for _, c := range rep.checks {
		if c.err != nil {
			failedChecks++
		}
	}
	// A failed check counts as a failed operation.
	failed := rep.failed + int64(failedChecks)
	attempted := rep.attempted + int64(failedChecks)
	rep.e2e["ok_ratio"] = 1 - float64(failed)/float64(max(attempted, 1))
	metrics := map[string]any{}
	for _, m := range wanted {
		v, ok := have[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which this run does not produce", m.Name)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}

	keys := make([]string, 0, len(rep.samples))
	for k := range rep.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("samples %-24s %d\n", k, rep.samples[k])
	}
	for _, e := range rep.errs {
		fmt.Printf("error %s\n", e)
	}
	for _, c := range rep.checks {
		if c.err != nil {
			fmt.Printf("check FAIL %s: %v\n", c.name, c.err)
		} else {
			fmt.Printf("check ok   %s\n", c.name)
		}
	}
	printMetrics("end-to-end", rep.e2e, bench.EndToEnd)
	printMetrics("per-layer", rep.layer, bench.PerLayer)
	fmt.Println(mustJSON(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}))
	return nil
}

// printMetrics lists every metric a run measured: those BENCHMARK.json
// names in its order and with its units, then the rest, which the report
// shows but the result line does not carry.
func printMetrics(kind string, have map[string]float64, specs []metricSpec) {
	named := map[string]bool{}
	for _, m := range specs {
		named[m.Name] = true
		if v, ok := have[m.Name]; ok {
			fmt.Printf("%s %-36s %14.6g %s\n", kind, m.Name, v, m.Unit)
		}
	}
	var rest []string
	for name := range have {
		if !named[name] {
			rest = append(rest, name)
		}
	}
	sort.Strings(rest)
	for _, name := range rest {
		fmt.Printf("%s (not gated) %-24s %14.6g\n", kind, name, have[name])
	}
}

// loadSpecs reads BENCHMARK.json and the embedded rationale, and checks
// they describe the same workloads and per-layer metrics as this program.
func loadSpecs() (*benchmarkFile, *rationale, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	var r rationale
	if err := json.Unmarshal(rationaleJSON, &r); err != nil {
		return nil, nil, fmt.Errorf("parsing rationale.json: %w", err)
	}
	var missing []string
	for _, w := range b.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			missing = append(missing, "workload "+w.Name+" (program)")
		}
		if _, ok := r.Workloads[w.Name]; !ok {
			missing = append(missing, "workload "+w.Name+" (rationale)")
		}
	}
	for _, m := range b.PerLayer {
		if _, ok := r.PerLayer[m.Name]; !ok {
			missing = append(missing, "per-layer metric "+m.Name+" (rationale)")
		}
	}
	if len(missing) > 0 {
		return nil, nil, fmt.Errorf("BENCHMARK.json names what the program or rationale.json lacks: %s", strings.Join(missing, ", "))
	}
	return &b, &r, nil
}

// provenance identifies what was measured and where.
func provenance(seed, heldOut uint64, source string) map[string]any {
	commit := "unknown (not built from a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"commit":             commit,
		"source_sha256":      source,
		"go":                 runtime.Version(),
		"nproc":              runtime.NumCPU(),
		"gomaxprocs":         runtime.GOMAXPROCS(0),
		"sched_workers":      sched.Workers(),
		"intra_op_threshold": device.IntraOpThreshold(),
		"batch_prefetch":     batchPrefetch(),
		"seed":               seed,
		"held_out_seed":      heldOut,
	}
}

// sourceDigest fingerprints the Go sources and module files under the
// working directory, so a report from a tree without git history still
// names the code it measured.
func sourceDigest() string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries do not belong to the build
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// digestBook remembers the result-table digests of one source tree,
// workload and seed across runs in a checkout, so a seed's results are
// checked for repeating on every run, not only within one.
type digestBook struct {
	path  string
	mu    sync.Mutex
	known map[string]string
}

func openDigests(path string) (*digestBook, error) {
	d := &digestBook{path: path, known: map[string]string{}}
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return d, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &d.known); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return d, nil
}

// match records digest under key, or reports a mismatch with the digest
// an earlier run recorded.
func (d *digestBook) match(key, digest string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.known[key]; ok {
		if old != digest {
			return fmt.Errorf("%s: result tables digest %s, an earlier run got %s", key, digest, old)
		}
		return nil
	}
	d.known[key] = digest
	return nil
}

func (d *digestBook) save() error {
	b, err := json.MarshalIndent(d.known, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(d.path), 0o755); err != nil {
		return err
	}
	tmp := d.path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, d.path)
}
