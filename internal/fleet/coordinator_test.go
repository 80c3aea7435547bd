package fleet

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
)

// testUnit is a synthetic work unit; coordinator tests never resolve or
// train it, so the recipe fields can stay zero.
func testUnit(cell string, replica int) experiments.WorkUnit {
	return experiments.WorkUnit{Cell: cell, Task: "t", Variant: "IMPL", Replica: replica}
}

// testResult fabricates the matching replica result.
func testResult(replica int) *core.RunResult {
	return &core.RunResult{
		Variant:      core.Impl,
		Replica:      replica,
		TestAccuracy: 0.5,
		Predictions:  []int{1, 2, 3},
		Weights:      []float32{0.25},
		EpochLoss:    []float64{1.0},
	}
}

// trainAsync enqueues a unit and returns channels carrying Train's
// outcome.
func trainAsync(ctx context.Context, c *Coordinator, u experiments.WorkUnit) (<-chan *core.RunResult, <-chan error) {
	resCh := make(chan *core.RunResult, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := c.Train(ctx, u)
		resCh <- res
		errCh <- err
	}()
	return resCh, errCh
}

// leaseOne pulls until a unit arrives or the deadline passes.
func leaseOne(t *testing.T, c *Coordinator, worker string) Leased {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		units, _ := c.Lease(context.Background(), worker, 1, 50*time.Millisecond, 0)
		if len(units) > 0 {
			return units[0]
		}
	}
	t.Fatalf("worker %s leased nothing before the deadline", worker)
	return Leased{}
}

// TestLeaseExpirySteal walks the whole satellite scenario: worker one
// leases a unit and goes silent, the lease expires and requeues, worker
// two steals and completes it, the silent worker learns "gone" from its
// next heartbeat, and its late duplicate upload is acknowledged and
// dropped — exactly one result reaches the waiter.
func TestLeaseExpirySteal(t *testing.T) {
	c := New(Options{TTL: 40 * time.Millisecond})
	u := testUnit("cell-steal", 0)
	resCh, errCh := trainAsync(context.Background(), c, u)

	got := leaseOne(t, c, "w1")
	if got.Unit.Cell != u.Cell {
		t.Fatalf("leased unit for cell %q, want %q", got.Unit.Cell, u.Cell)
	}
	// w1 goes silent (no heartbeat): the lease expires and w2 steals it.
	time.Sleep(60 * time.Millisecond)
	stolen := leaseOne(t, c, "w2")
	if stolen.ID != got.ID {
		t.Fatalf("w2 stole unit %s, want %s", stolen.ID, got.ID)
	}
	if s := c.Stats(); s.ExpiredLeases == 0 {
		t.Fatal("expired lease not counted")
	}
	if hb := c.Heartbeat("w1", got.ID, 0); hb != HeartbeatGone {
		t.Fatalf("silent worker's heartbeat = %q, want %q", hb, HeartbeatGone)
	}
	if hb := c.Heartbeat("w2", got.ID, 0); hb != HeartbeatOK {
		t.Fatalf("thief's heartbeat = %q, want %q", hb, HeartbeatOK)
	}

	res := testResult(0)
	status, err := c.CompleteUpload("w2", stolen.ID, u.Cell, res, nil, nil)
	if err != nil || status != CompleteMerged {
		t.Fatalf("steal completion = (%q, %v), want merged", status, err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := <-resCh; !got.Equal(res) {
		t.Fatal("waiter received a different result than the worker uploaded")
	}

	// w1 finally finishes too: idempotent, acknowledged, dropped.
	status, err = c.CompleteUpload("w1", got.ID, u.Cell, testResult(0), nil, nil)
	if err != nil || status != CompleteDuplicate {
		t.Fatalf("duplicate completion = (%q, %v), want duplicate", status, err)
	}
	s := c.Stats()
	if s.CompletedUnits != 1 || s.DuplicateUploads != 1 {
		t.Fatalf("completed=%d duplicates=%d, want 1 and 1", s.CompletedUnits, s.DuplicateUploads)
	}
}

// TestHeartbeatKeepsLeaseAlive proves the inverse of stealing: a worker
// heartbeating inside the TTL retains its unit well past several TTLs.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	c := New(Options{TTL: 50 * time.Millisecond})
	_, errCh := trainAsync(context.Background(), c, testUnit("cell-alive", 1))
	got := leaseOne(t, c, "w1")
	for i := 0; i < 8; i++ { // ~4 TTLs of heartbeats at TTL/2.5
		time.Sleep(20 * time.Millisecond)
		if hb := c.Heartbeat("w1", got.ID, 0); hb != HeartbeatOK {
			t.Fatalf("heartbeat %d = %q, want ok", i, hb)
		}
		if units, _ := c.Lease(context.Background(), "w2", 1, 0, 0); len(units) != 0 {
			t.Fatal("heartbeated lease was stolen")
		}
	}
	if _, err := c.CompleteUpload("w1", got.ID, "cell-alive", testResult(1), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestAbandonedUnitDies proves waiter-driven cleanup: when the only
// Train call for a unit is cancelled, workers stop seeing the unit, and
// a worker already holding it is told "gone".
func TestAbandonedUnitDies(t *testing.T) {
	c := New(Options{TTL: time.Minute})
	ctx, cancel := context.WithCancel(context.Background())
	_, errCh := trainAsync(ctx, c, testUnit("cell-abandon", 0))
	got := leaseOne(t, c, "w1")
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("abandoned Train returned %v", err)
	}
	if hb := c.Heartbeat("w1", got.ID, 0); hb != HeartbeatGone {
		t.Fatalf("heartbeat for abandoned unit = %q, want gone", hb)
	}
	if units, _ := c.Lease(context.Background(), "w2", 4, 0, 0); len(units) != 0 {
		t.Fatal("abandoned unit still leasable")
	}
	// A late upload for it is stale, not an error.
	if status, err := c.CompleteUpload("w1", got.ID, "cell-abandon", testResult(0), nil, nil); err != nil || status != CompleteStale {
		t.Fatalf("late upload = (%q, %v), want stale", status, err)
	}
}

// TestFailUnitPropagates proves permanent worker-side failures reach
// the waiter as errors and free the unit for a fresh future attempt.
func TestFailUnitPropagates(t *testing.T) {
	c := New(Options{TTL: time.Minute})
	_, errCh := trainAsync(context.Background(), c, testUnit("cell-fail", 2))
	got := leaseOne(t, c, "w1")
	c.FailUnit("w1", got.ID, "catalog mismatch")
	err := <-errCh
	if err == nil || !strings.Contains(err.Error(), "catalog mismatch") {
		t.Fatalf("Train returned %v, want the worker's failure", err)
	}
	// The failed unit is forgotten: a new Train re-queues it.
	_, errCh2 := trainAsync(context.Background(), c, testUnit("cell-fail", 2))
	retry := leaseOne(t, c, "w1")
	if retry.ID != got.ID {
		t.Fatalf("retry leased %s, want %s", retry.ID, got.ID)
	}
	if _, err := c.CompleteUpload("w1", retry.ID, "cell-fail", testResult(2), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh2; err != nil {
		t.Fatal(err)
	}
}

// TestTornUploadQuarantined proves the merge gate: a CRC-torn record is
// rejected with its payload preserved in quarantine, the lease stays
// with the worker, and the retried intact upload merges — the waiter
// only ever sees the verified result.
func TestTornUploadQuarantined(t *testing.T) {
	dir := t.TempDir()
	c := New(Options{TTL: time.Minute, Dir: dir})
	u := testUnit("cell-torn", 0)
	resCh, errCh := trainAsync(context.Background(), c, u)
	got := leaseOne(t, c, "w1")

	want := testResult(0)
	var buf bytes.Buffer
	if err := checkpoint.EncodeResult(&buf, u.Cell, want); err != nil {
		t.Fatal(err)
	}
	intact := buf.Bytes()
	torn := intact[:len(intact)-3]

	cell, res, derr := checkpoint.DecodeResult(bytes.NewReader(torn))
	if derr == nil {
		t.Fatal("torn record decoded cleanly; the test is not testing anything")
	}
	if _, err := c.CompleteUpload("w1", got.ID, cell, res, derr, torn); err == nil {
		t.Fatal("torn upload accepted")
	}
	if n := durable.QuarantineCount(dir); n != 1 {
		t.Fatalf("quarantined %d payloads, want 1", n)
	}
	if s := c.Stats(); s.RejectedUploads != 1 || s.CompletedUnits != 0 {
		t.Fatalf("rejected=%d completed=%d after torn upload, want 1 and 0", s.RejectedUploads, s.CompletedUnits)
	}
	// The lease survived the rejection: the worker retries and merges.
	if hb := c.Heartbeat("w1", got.ID, 0); hb != HeartbeatOK {
		t.Fatalf("lease did not survive a rejected upload: %q", hb)
	}
	cell, res, derr = checkpoint.DecodeResult(bytes.NewReader(intact))
	if derr != nil {
		t.Fatal(derr)
	}
	if status, err := c.CompleteUpload("w1", got.ID, cell, res, nil, intact); err != nil || status != CompleteMerged {
		t.Fatalf("retried upload = (%q, %v), want merged", status, err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if final := <-resCh; !final.Equal(want) {
		t.Fatal("merged result differs from the worker's")
	}
}

// TestWrongCellUploadRejected proves an intact record for the wrong
// cell cannot complete a unit (digest collisions and client bugs both
// land here).
func TestWrongCellUploadRejected(t *testing.T) {
	c := New(Options{TTL: time.Minute})
	u := testUnit("cell-right", 0)
	_, errCh := trainAsync(context.Background(), c, u)
	got := leaseOne(t, c, "w1")
	if _, err := c.CompleteUpload("w1", got.ID, "cell-wrong", testResult(0), nil, nil); err == nil {
		t.Fatal("wrong-cell upload accepted")
	}
	if _, err := c.CompleteUpload("w1", got.ID, u.Cell, testResult(5), nil, nil); err == nil {
		t.Fatal("wrong-replica upload accepted")
	}
	if _, err := c.CompleteUpload("w1", got.ID, u.Cell, testResult(0), nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestLeaseBatching proves one pull can carry several units and that
// identical Train calls join one unit instead of duplicating work.
func TestLeaseBatching(t *testing.T) {
	c := New(Options{TTL: time.Minute})
	for i := 0; i < 3; i++ {
		trainAsync(context.Background(), c, testUnit("cell-batch", i))
	}
	// A duplicate Train for replica 0 must join, not re-queue.
	dupRes, dupErr := trainAsync(context.Background(), c, testUnit("cell-batch", 0))
	deadline := time.Now().Add(5 * time.Second)
	var units []Leased
	for len(units) < 3 && time.Now().Before(deadline) {
		got, _ := c.Lease(context.Background(), "w1", 8, 20*time.Millisecond, 0)
		units = append(units, got...)
	}
	if len(units) != 3 {
		t.Fatalf("leased %d units, want 3 (duplicate Train must join the live unit)", len(units))
	}
	for _, lu := range units {
		if _, err := c.CompleteUpload("w1", lu.ID, "cell-batch", testResult(lu.Unit.Replica), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-dupErr; err != nil {
		t.Fatal(err)
	}
	if res := <-dupRes; res.Replica != 0 {
		t.Fatalf("joined waiter got replica %d, want 0", res.Replica)
	}
}
