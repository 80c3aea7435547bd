package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/report"
)

// TestStatsEndpoint pins the /v1/stats shape: every job state present
// (zeros included), queue gauge against capacity, and the store/ledger
// counters moving as work completes.
func TestStatsEndpoint(t *testing.T) {
	srv := newTestServer(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})

	var before StatsResponse
	getJSON(t, srv, "/v1/stats", 200, &before)
	for _, state := range []jobs.State{jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed, jobs.StateCancelled} {
		if _, ok := before.Jobs[string(state)]; !ok {
			t.Fatalf("stats jobs map missing state %q: %v", state, before.Jobs)
		}
	}
	if before.Queue.Capacity <= 0 {
		t.Fatalf("queue capacity = %d, want > 0", before.Queue.Capacity)
	}
	if before.Fleet != nil {
		t.Fatal("non-fleet server reported fleet stats")
	}

	var run RunResponse
	postJSON(t, srv, "/v1/experiments/fig1/run", `{"scale":"test"}`, 200, &run)

	var after StatsResponse
	getJSON(t, srv, "/v1/stats", 200, &after)
	if after.Jobs[string(jobs.StateDone)] != before.Jobs[string(jobs.StateDone)]+1 {
		t.Fatalf("done jobs did not advance: before %v, after %v", before.Jobs, after.Jobs)
	}
	if after.Store.Results != before.Store.Results+1 {
		t.Fatalf("store results = %d, want %d", after.Store.Results, before.Store.Results+1)
	}
	if after.Queue.Backlog != 0 {
		t.Fatalf("idle backlog = %d, want 0", after.Queue.Backlog)
	}
}

// TestReadyzJournalProbe is the readiness satellite: a journal that can
// no longer record (forced through the "journal.probe" fault point, the
// root-runs-tests substitute for a read-only directory) flips readyz to
// 503 with the journal check carrying the cause, and recovery flips it
// back — the silent-durability-downgrade failure mode becomes visible.
func TestReadyzJournalProbe(t *testing.T) {
	faults.Reset()
	srv := newTestServer(t, Options{StoreDir: t.TempDir()})

	var ready ReadyResponse
	getJSON(t, srv, "/v1/readyz", 200, &ready)
	if ready.Checks["journal"] != "ok" {
		t.Fatalf("healthy journal check = %q, want ok (checks = %v)", ready.Checks["journal"], ready.Checks)
	}

	disarm := faults.Arm("journal.probe", faults.Injection{Err: errors.New("journal dir gone read-only")})
	defer disarm()
	var sick ReadyResponse
	getJSON(t, srv, "/v1/readyz", 503, &sick)
	if sick.Ready {
		t.Fatal("readyz reported ready with an unwritable journal")
	}
	if !strings.Contains(sick.Checks["journal"], "read-only") {
		t.Fatalf("journal check = %q, want the probe failure surfaced", sick.Checks["journal"])
	}

	disarm()
	getJSON(t, srv, "/v1/readyz", 200, &ready)
	if ready.Checks["journal"] != "ok" {
		t.Fatalf("recovered journal check = %q, want ok", ready.Checks["journal"])
	}
}

// fleetHarness is one fleet-mode server plus its HTTP front.
type fleetHarness struct {
	s   *Server
	srv *httptest.Server
}

func newFleetHarness(t *testing.T, opts Options) *fleetHarness {
	t.Helper()
	opts.Fleet = true
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return &fleetHarness{s: s, srv: srv}
}

// pollDone polls one job to a terminal state and requires done.
func pollDone(t *testing.T, srv *httptest.Server, id string, within time.Duration) jobs.Snapshot {
	t.Helper()
	var snap jobs.Snapshot
	deadline := time.Now().Add(within)
	for {
		getJSON(t, srv, "/v1/jobs/"+id, 200, &snap)
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminal: %+v", id, snap)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("job %s = %+v", id, snap)
	}
	return snap
}

// TestFleetGridBitIdentical is the tentpole acceptance test at the HTTP
// layer: a grid trained by two worker processes' loops (in-process here;
// the CI smoke runs real processes) over the full lease/heartbeat/upload
// protocol is byte-identical to the same grid trained single-node — and
// a torn first upload (armed through the "fleet.complete" fault point)
// is quarantined and retried without corrupting anything or duplicating
// work.
func TestFleetGridBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	faults.Reset()
	ledgerDir := t.TempDir()
	h := newFleetHarness(t, Options{
		Populations: experiments.NewPopulations(0),
		LedgerDir:   ledgerDir,
		LeaseTTL:    2 * time.Second,
	})

	// Tear the very first upload 10 bytes in: the coordinator must
	// quarantine it and the worker's retry (re-encoded intact) must land.
	disarm := faults.Arm("fleet.complete", faults.Injection{Truncate: true, TruncateAt: 10, Count: 1})
	defer disarm()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := []*fleet.Worker{
		{Base: h.srv.URL, Name: "w1", Trainers: 2, Backoff: 20 * time.Millisecond, Wait: 500 * time.Millisecond},
		{Base: h.srv.URL, Name: "w2", Trainers: 2, Backoff: 20 * time.Millisecond, Wait: 500 * time.Millisecond},
	}
	for _, w := range workers {
		go func(w *fleet.Worker) { _ = w.Run(ctx) }(w)
	}

	// One cell, three replicas, two epochs: tiny but real training.
	body := `{"grid":{"tasks":["smallcnn-cifar10"],"devices":["V100"],"variants":["IMPL"],"recipes":[{"epochs":2}]},"scale":"test","replicas":3,"seed":13}`
	var resp GridResponse
	postJSON(t, h.srv, "/v1/grid", body, 202, &resp)
	snap := pollDone(t, h.srv, resp.ID, 180*time.Second)

	// Single-node reference: the identical grid on an isolated,
	// fleet-free server.
	ref := newTestServer(t, Options{Populations: experiments.NewPopulations(0)})
	var refResp GridResponse
	postJSON(t, ref, "/v1/grid", body, 202, &refResp)
	refSnap := pollDone(t, ref, refResp.ID, 180*time.Second)

	got, _ := json.Marshal(snap.Result.Tables)
	want, _ := json.Marshal(refSnap.Result.Tables)
	if string(got) != string(want) {
		t.Fatalf("fleet-trained grid differs from single-node:\n%s\nvs\n%s", got, want)
	}

	// Exactly one train per replica across the whole fleet, the torn
	// upload rejected and preserved, nothing duplicated.
	var trained int64
	for _, w := range workers {
		trained += w.Trains()
	}
	if trained != 3 {
		t.Fatalf("fleet trained %d replicas, want exactly 3", trained)
	}
	if n := h.s.pops.Trains(); n != 3 {
		t.Fatalf("coordinator dispatched %d replica misses, want 3 (each exactly once)", n)
	}
	var stats StatsResponse
	getJSON(t, h.srv, "/v1/stats", 200, &stats)
	if stats.Fleet == nil {
		t.Fatal("fleet server reported no fleet stats")
	}
	if stats.Fleet.CompletedUnits != 3 || stats.Fleet.DuplicateUploads != 0 {
		t.Fatalf("fleet stats = %+v, want 3 completed / 0 duplicates", stats.Fleet)
	}
	if stats.Fleet.RejectedUploads != 1 {
		t.Fatalf("rejected uploads = %d, want 1 (the torn attempt)", stats.Fleet.RejectedUploads)
	}
	if n := durable.QuarantineCount(filepath.Join(ledgerDir, "fleet")); n != 1 {
		t.Fatalf("quarantined payloads = %d, want 1", n)
	}
	if stats.Ledger.Replicas != 3 || stats.Ledger.Misses < 3 {
		t.Fatalf("ledger stats = %+v, want 3 replicas from >=3 misses", stats.Ledger)
	}
}

// TestFleetDeadWorkerStolen is the fault-tolerance acceptance test at
// the HTTP layer: a worker that leases a unit and then vanishes without
// ever heartbeating (the in-process stand-in for SIGKILL; the CI smoke
// kills a real process) loses the lease at TTL expiry, and a surviving
// worker steals and completes the grid.
func TestFleetDeadWorkerStolen(t *testing.T) {
	if testing.Short() {
		t.Skip("training-backed experiment")
	}
	faults.Reset()
	h := newFleetHarness(t, Options{
		Populations: experiments.NewPopulations(0),
		LeaseTTL:    300 * time.Millisecond,
	})

	body := `{"grid":{"tasks":["smallcnn-cifar10"],"devices":["V100"],"variants":["IMPL"],"recipes":[{"epochs":2}]},"scale":"test","replicas":2,"seed":29}`
	var resp GridResponse
	postJSON(t, h.srv, "/v1/grid", body, 202, &resp)

	// The zombie: lease one unit over the wire, then never heartbeat,
	// never complete, never return.
	var leased fleet.LeaseResponse
	deadline := time.Now().Add(30 * time.Second)
	for len(leased.Units) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("grid never enqueued a leasable unit")
		}
		postJSON(t, h.srv, "/v1/work/lease", `{"worker":"zombie","max":1,"wait_ms":2000}`, 200, &leased)
	}

	// The survivor arrives after the zombie holds its lease.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	survivor := &fleet.Worker{Base: h.srv.URL, Name: "survivor", Trainers: 2,
		Backoff: 20 * time.Millisecond, Wait: 100 * time.Millisecond}
	go func() { _ = survivor.Run(ctx) }()

	pollDone(t, h.srv, resp.ID, 180*time.Second)

	stats := h.s.Fleet().Stats()
	if stats.ExpiredLeases < 1 {
		t.Fatalf("expired leases = %d, want >= 1 (the zombie's)", stats.ExpiredLeases)
	}
	if stats.CompletedUnits != 2 {
		t.Fatalf("completed units = %d, want 2", stats.CompletedUnits)
	}
	if n := survivor.Trains(); n != 2 {
		t.Fatalf("survivor trained %d replicas, want 2 (including the stolen one)", n)
	}
	// The zombie's unit is long gone: a late heartbeat cannot revive it.
	var hb fleet.HeartbeatResponse
	postJSON(t, h.srv, "/v1/work/"+leased.Units[0].ID+"/heartbeat", `{"worker":"zombie"}`, 200, &hb)
	if hb.Status == fleet.HeartbeatOK {
		t.Fatalf("zombie heartbeat = %q, want the unit reported done or gone", hb.Status)
	}
}
