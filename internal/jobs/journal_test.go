package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
)

// compactJSON normalizes raw JSON for comparison: the journal's pretty
// encoder re-indents embedded RawMessage payloads without changing them
// semantically.
func compactJSON(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compacting %s: %v", raw, err)
	}
	return buf.String()
}

func newTestJournal(t *testing.T) *Journal {
	t.Helper()
	j, err := OpenJournal(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	j := newTestJournal(t)
	e := journalEntry(KindTask, "grid-abc", "grid-abc-test-r2-s7", testConfig(), json.RawMessage(`{"tasks":["x"]}`))
	e.Replicas = 2
	if err := j.Record(e); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	got := entries[0]
	if got.Kind != KindTask || got.Experiment != "grid-abc" || got.Key != "grid-abc-test-r2-s7" {
		t.Fatalf("entry = %+v", got)
	}
	if compactJSON(t, got.Payload) != `{"tasks":["x"]}` {
		t.Fatalf("payload = %s", got.Payload)
	}
	cfg, err := got.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Scale != testConfig().Scale || cfg.Replicas != 2 || cfg.Seed != 7 {
		t.Fatalf("config = %+v", cfg)
	}
	j.Remove(got.Key)
	if n := j.Len(); n != 0 {
		t.Fatalf("after remove Len = %d", n)
	}
	j.Remove("never-existed") // no-op, must not panic or error
}

func TestJournalRejectsTraversalKeys(t *testing.T) {
	j := newTestJournal(t)
	for _, key := range []string{"", "../escape", "a/b", `a\b`, ".hidden"} {
		if err := j.Record(JournalEntry{Kind: KindExperiment, Key: key, Scale: "test"}); err == nil {
			t.Fatalf("key %q accepted", key)
		}
	}
}

// TestJournalQuarantinesCorruptEntries: an undecodable entry is moved
// aside with a reason, never deleted, and does not block the others.
func TestJournalQuarantinesCorruptEntries(t *testing.T) {
	j := newTestJournal(t)
	if err := j.Record(journalEntry(KindExperiment, "fig1", "fig1-test-r1-s7", testConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(j.Dir(), "torn.json"), []byte(`{"kind":"ta`), 0o644); err != nil {
		t.Fatal(err)
	}
	entries, err := j.Entries()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Key != "fig1-test-r1-s7" {
		t.Fatalf("entries = %+v", entries)
	}
	if j.Quarantined() != 1 || durable.QuarantineCount(j.Dir()) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d", j.Quarantined(), durable.QuarantineCount(j.Dir()))
	}
	if reason := durable.QuarantineReason(j.Dir(), "torn.json"); reason == "" {
		t.Fatal("no quarantine reason recorded")
	}
}

// TestJournalTornWriteNeverPublishesPartial: tearing the journal write
// fails Record, and the half-written temp file is quarantined (not
// trusted, not deleted) by the next scan.
func TestJournalTornWrite(t *testing.T) {
	j := newTestJournal(t)
	defer faults.Reset()
	faults.Arm("journal.write", faults.Injection{Err: errors.New("disk gone"), Count: 1})
	if err := j.Record(journalEntry(KindExperiment, "fig1", "fig1-test-r1-s7", testConfig(), nil)); err == nil {
		t.Fatal("record with injected write fault succeeded")
	}
	if n := j.Len(); n != 0 {
		t.Fatalf("failed record left %d entries", n)
	}
}

// TestJournalFollowsDetachedJobLifecycle pins the journal contract:
// detached submissions are recorded, completion and explicit
// cancellation settle the entry, and engine shutdown preserves it.
func TestJournalFollowsDetachedJobLifecycle(t *testing.T) {
	journal := newTestJournal(t)
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	e := newTestEngine(t, Options{Journal: journal, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return stubResult(id), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}})

	// Attached jobs are not durable: no one owes their waiters a restart.
	att, err := e.SubmitAttached("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if n := journal.Len(); n != 0 {
		t.Fatalf("attached submission journaled (%d entries)", n)
	}
	// A detached join upgrades the same job — now it must be durable.
	det, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if det != att {
		t.Fatal("detached submission did not join the live attached job")
	}
	if n := journal.Len(); n != 1 {
		t.Fatalf("upgraded job not journaled (%d entries)", n)
	}
	close(release)
	waitTerminal(t, det)
	if n := journal.Len(); n != 0 {
		t.Fatalf("done job still journaled (%d entries)", n)
	}

	// Explicit cancellation is a verdict: the entry goes too.
	release = make(chan struct{})
	cfg2 := testConfig()
	cfg2.Seed = 8
	j2, err := e.Submit("fig1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if n := journal.Len(); n != 1 {
		t.Fatalf("live detached job not journaled (%d entries)", n)
	}
	if _, ok := e.Cancel(j2.ID()); !ok {
		t.Fatal("cancel failed")
	}
	waitTerminal(t, j2)
	if n := journal.Len(); n != 0 {
		t.Fatalf("user-cancelled job still journaled (%d entries)", n)
	}

	// Engine shutdown is not a verdict: the entry survives for -resume.
	cfg3 := testConfig()
	cfg3.Seed = 9
	j3, err := e.Submit("fig1", cfg3)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Close()
	waitTerminal(t, j3)
	if n := journal.Len(); n != 1 {
		t.Fatalf("shutdown-cancelled job lost its journal entry (%d entries)", n)
	}
}

// TestRecoverResubmitsJournaledWork: a fresh engine over the same
// journal and store resubmits exactly what was owed — entries whose
// results landed before the crash settle as cached.
func TestRecoverResubmitsJournaledWork(t *testing.T) {
	dir := t.TempDir()
	journal, err := OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	store, err := Open(filepath.Join(dir, "results"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Simulate the crashed predecessor: two experiment entries — one whose
	// result made it into the store, one still owed — and one task entry.
	owedCfg := testConfig()
	settledCfg := testConfig()
	settledCfg.Seed = 8
	for _, entry := range []JournalEntry{
		journalEntry(KindExperiment, "fig1", ResultKey("fig1", owedCfg), owedCfg, nil),
		journalEntry(KindExperiment, "fig1", ResultKey("fig1", settledCfg), settledCfg, nil),
		journalEntry(KindTask, "grid-abc", "grid-abc-test-r1-s7", owedCfg, json.RawMessage(`{"devices":["V100"]}`)),
	} {
		if err := journal.Record(entry); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Put(ResultKey("fig1", settledCfg), stubResult("fig1")); err != nil {
		t.Fatal(err)
	}

	var ranExperiments, ranTasks int
	e := newTestEngine(t, Options{Journal: journal, Store: store,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			ranExperiments++
			return stubResult(id), nil
		}})
	var taskPayload string
	n, err := e.Recover(func(entry JournalEntry) (func(context.Context) (*report.Result, error), error) {
		taskPayload = compactJSON(t, entry.Payload)
		return func(context.Context) (*report.Result, error) {
			ranTasks++
			return stubResult(entry.Experiment), nil
		}, nil
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 3 {
		t.Fatalf("recovered = %d, want 3", n)
	}
	if taskPayload != `{"devices":["V100"]}` {
		t.Fatalf("resolver saw payload %s", taskPayload)
	}
	for _, j := range e.Jobs() {
		waitTerminal(t, j)
	}
	if ranExperiments != 1 || ranTasks != 1 {
		t.Fatalf("ran %d experiments and %d tasks, want 1 and 1 (settled entry must serve cached)", ranExperiments, ranTasks)
	}
	if n := journal.Len(); n != 0 {
		t.Fatalf("%d entries left after recovery completed", n)
	}
}

// TestRecoverKeepsUnresolvableEntries: a resolver failure reports the
// entry and leaves it journaled — owed work is never silently dropped.
func TestRecoverKeepsUnresolvableEntries(t *testing.T) {
	journal := newTestJournal(t)
	if err := journal.Record(journalEntry(KindTask, "grid-abc", "grid-abc-test-r1-s7", testConfig(), nil)); err != nil {
		t.Fatal(err)
	}
	e := newTestEngine(t, Options{Journal: journal})
	n, err := e.Recover(func(entry JournalEntry) (func(context.Context) (*report.Result, error), error) {
		return nil, fmt.Errorf("no payload")
	})
	if n != 0 || err == nil {
		t.Fatalf("recover = %d, %v; want 0 and an error", n, err)
	}
	if journal.Len() != 1 {
		t.Fatal("unresolvable entry was dropped from the journal")
	}
	// No resolver at all is the same contract.
	if n, err := e.Recover(nil); n != 0 || err == nil {
		t.Fatalf("recover without resolver = %d, %v", n, err)
	}
}

// TestTransientFailuresRetry: an error marked Transient is retried with
// backoff up to the budget; success on a later attempt is an ordinary
// done job that records its retry count.
func TestTransientFailuresRetry(t *testing.T) {
	attempts := 0
	e := newTestEngine(t, Options{Retries: 3, RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			attempts++
			if attempts < 3 {
				return nil, Transient(errors.New("flaky I/O"))
			}
			return stubResult(id), nil
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateDone {
		t.Fatalf("state = %s (%+v)", snap.State, snap.Error)
	}
	if attempts != 3 || snap.Retries != 2 {
		t.Fatalf("attempts = %d, snapshot retries = %d; want 3 and 2", attempts, snap.Retries)
	}
}

// TestTransientBudgetExhausted: when every attempt fails the job fails
// with the Transient bit set, so clients know resubmitting may work.
func TestTransientBudgetExhausted(t *testing.T) {
	attempts := 0
	e := newTestEngine(t, Options{Retries: 2, RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			attempts++
			return nil, Transient(errors.New("still flaky"))
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindFailed {
		t.Fatalf("snapshot = %+v", snap)
	}
	if !snap.Error.Transient {
		t.Fatal("exhausted transient failure not marked Transient")
	}
	if attempts != 3 { // 1 initial + 2 retries
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

// TestNonTransientFailsFast: unmarked errors never retry.
func TestNonTransientFailsFast(t *testing.T) {
	attempts := 0
	e := newTestEngine(t, Options{Retries: 5, RetryBackoff: time.Millisecond,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			attempts++
			return nil, errors.New("deterministic bug")
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error.Transient || attempts != 1 {
		t.Fatalf("attempts = %d, snapshot = %+v", attempts, snap)
	}
}

// TestNegativeRetriesDisablesRetry: Options.Retries < 0 means even
// transient failures fail on the first attempt.
func TestNegativeRetriesDisablesRetry(t *testing.T) {
	attempts := 0
	e := newTestEngine(t, Options{Retries: -1,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			attempts++
			return nil, Transient(errors.New("flaky"))
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, j)
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1", attempts)
	}
}

// TestPanicBecomesTypedFailure: a panicking runner fails its job with
// kind "panic" and the worker survives to run the next job.
func TestPanicBecomesTypedFailure(t *testing.T) {
	e := newTestEngine(t, Options{Workers: 1, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		if cfg.Seed == 7 {
			panic("boom")
		}
		return stubResult(id), nil
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindPanic {
		t.Fatalf("snapshot = %+v", snap)
	}
	// The single worker must still be alive to run this.
	cfg2 := testConfig()
	cfg2.Seed = 8
	j2, err := e.Submit("fig1", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, j2); snap.State != StateDone {
		t.Fatalf("post-panic job = %+v", snap)
	}
}

// TestInjectedPanicViaFaultPoint: the "jobs.run" fault point can panic
// the execution path itself; the engine contains it identically.
func TestInjectedPanicViaFaultPoint(t *testing.T) {
	defer faults.Reset()
	faults.Arm("jobs.run", faults.Injection{Panic: "injected", Count: 1})
	e := newTestEngine(t, Options{Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error.Kind != ErrKindPanic {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestWatchdogTimeout: an attempt exceeding JobTimeout fails with kind
// "timeout" — not "cancelled", which is reserved for the caller's verdict.
func TestWatchdogTimeout(t *testing.T) {
	e := newTestEngine(t, Options{JobTimeout: 20 * time.Millisecond,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateFailed || snap.Error == nil || snap.Error.Kind != ErrKindTimeout {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestWatchdogDoesNotMaskUserCancel: a cancel arriving while the
// watchdog is armed still reports as cancelled.
func TestWatchdogDoesNotMaskUserCancel(t *testing.T) {
	started := make(chan struct{})
	e := newTestEngine(t, Options{JobTimeout: time.Hour,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	e.Cancel(j.ID())
	snap := waitTerminal(t, j)
	if snap.State != StateCancelled || snap.Error.Kind != ErrKindCancelled {
		t.Fatalf("snapshot = %+v", snap)
	}
}

// TestDrainWaitsForInFlight: Drain refuses new work, lets running jobs
// finish, and returns cleanly once they have.
func TestDrainWaitsForInFlight(t *testing.T) {
	journal := newTestJournal(t)
	started := make(chan struct{})
	release := make(chan struct{})
	e := newTestEngine(t, Options{Journal: journal,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-release
			return stubResult(id), nil
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	drained := make(chan error, 1)
	go func() { drained <- e.Drain(context.Background()) }()
	// Draining refuses new submissions (poll: the flag flips inside Drain).
	deadline := time.Now().Add(5 * time.Second)
	for !e.Draining() {
		if time.Now().After(deadline) {
			t.Fatal("Draining() never became true")
		}
		time.Sleep(time.Millisecond)
	}
	cfg2 := testConfig()
	cfg2.Seed = 8
	if _, err := e.Submit("fig1", cfg2); err == nil {
		t.Fatal("submit during drain succeeded")
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if snap := j.Snapshot(); snap.State != StateDone {
		t.Fatalf("drained job = %+v", snap)
	}
	if journal.Len() != 0 {
		t.Fatal("completed job still journaled after drain")
	}
}

// TestDrainDeadlineCancelsAndPreserves: past the deadline, Drain cancels
// what is left but keeps the journal entries — the next process resumes
// them.
func TestDrainDeadlineCancelsAndPreserves(t *testing.T) {
	journal := newTestJournal(t)
	started := make(chan struct{})
	e := newTestEngine(t, Options{Journal: journal,
		Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			close(started)
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	j, err := e.Submit("fig1", testConfig())
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := e.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain = %v, want deadline exceeded", err)
	}
	snap := waitTerminal(t, j)
	if snap.State != StateCancelled {
		t.Fatalf("snapshot = %+v", snap)
	}
	if journal.Len() != 1 {
		t.Fatal("drain-cancelled job lost its journal entry")
	}
}

// TestJournalSkipsRefusedSubmission: a detached submission the engine
// refuses leaves no journal entry and no temp file behind — the entry is
// written before the engine lock but published only on admission.
func TestJournalSkipsRefusedSubmission(t *testing.T) {
	journal := newTestJournal(t)
	e := newTestEngine(t, Options{Journal: journal, Run: func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
		return stubResult(id), nil
	}})
	e.Close()
	if _, err := e.Submit("fig1", testConfig()); err == nil {
		t.Fatal("closed engine accepted a submission")
	}
	files, err := os.ReadDir(journal.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 0 {
		t.Fatalf("refused submission left %v in the journal", files)
	}
}
