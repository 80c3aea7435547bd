package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/report"
	"repro/internal/sched"
)

// State is a job's lifecycle phase. Transitions are monotone:
//
//	queued -> running -> done | failed | cancelled
//	queued -> cancelled            (cancelled before a worker picked it up)
//	queued -> done                 (result already in the store: "cached")
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Error kinds for Error.Kind.
const (
	// ErrKindCancelled marks jobs stopped by Cancel or by every attached
	// waiter disconnecting.
	ErrKindCancelled = "cancelled"
	// ErrKindFailed marks jobs whose runner returned an error.
	ErrKindFailed = "failed"
	// ErrKindPanic marks jobs whose runner panicked; the panic is captured
	// so the worker goroutine (and the process) survives.
	ErrKindPanic = "panic"
	// ErrKindTimeout marks jobs stopped by the engine's wall-clock
	// watchdog (Options.JobTimeout) — distinguished from cancellation so
	// clients can tell "we gave up on it" from "you stopped it".
	ErrKindTimeout = "timeout"
)

// Error is the typed failure attached to a failed or cancelled job; it
// serializes into job snapshots so HTTP clients can branch on Kind
// without parsing messages.
type Error struct {
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// Transient reports that the failure was classified as retryable (an
	// injected I/O hiccup, a full queue downstream) and the retry budget
	// was exhausted — the submission is worth repeating as-is.
	Transient bool `json:"transient,omitempty"`
}

func (e *Error) Error() string { return fmt.Sprintf("job %s: %s", e.Kind, e.Message) }

// transientError tags an error as retryable. It is created by Transient
// and detected (anywhere in a wrap chain) by IsTransient.
type transientError struct{ err error }

func (t *transientError) Error() string { return t.err.Error() }
func (t *transientError) Unwrap() error { return t.err }

// Transient marks err as a transient failure: the engine retries the
// attempt (with capped exponential backoff) instead of failing the job
// outright. Runners wrap errors they know to be retryable — flaky I/O,
// contended resources — while everything unmarked fails fast.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err: err}
}

// IsTransient reports whether err (anywhere in its wrap chain) was
// marked with Transient.
func IsTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// panicError carries a recovered runner panic through the error path so
// finish can classify it as ErrKindPanic.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("runner panicked: %v", p.val) }

// timeoutError marks an attempt stopped by the watchdog rather than by
// the caller.
type timeoutError struct{ after time.Duration }

func (t *timeoutError) Error() string {
	return fmt.Sprintf("runner exceeded the %s watchdog timeout", t.after)
}

// Progress is the fraction of an experiment's work completed: Done units
// out of Total. Training grids report replica-granular units (a cell's
// cached replicas tick instantly, so a mostly-warm grid shows most of its
// bar at submission); profiling experiments report per-cell units. Total
// is 0 until the runner sizes its work (and stays 0 for experiments with
// no grid, which complete near-instantly).
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Snapshot is a point-in-time, JSON-ready view of a job. Result is
// populated only in StateDone.
type Snapshot struct {
	ID         string            `json:"id"`
	Experiment string            `json:"experiment"`
	Key        string            `json:"key"`
	State      State             `json:"state"`
	Progress   Progress          `json:"progress"`
	Config     report.ConfigEcho `json:"config"`
	// Cached reports that the result came from the store (or from a
	// concurrently completed identical job) without training anything.
	Cached bool `json:"cached"`
	// Retries counts transient-failure attempts that were retried.
	Retries int            `json:"retries,omitempty"`
	Error   *Error         `json:"error,omitempty"`
	Result  *report.Result `json:"result,omitempty"`
}

// RunFunc executes one experiment. Production engines use
// experiments.Run; tests substitute stubs.
type RunFunc func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error)

// Options configures an Engine.
type Options struct {
	// Workers is the number of jobs executed concurrently (each job still
	// parallelizes internally on the sched pool). 0 picks half of
	// GOMAXPROCS, minimum 1 — jobs are coarse units; the fine-grained
	// parallelism lives inside them.
	Workers int
	// QueueDepth bounds how many submitted jobs may wait behind the
	// running ones before Submit returns ErrQueueFull (0 = DefaultQueueDepth).
	QueueDepth int
	// Store persists and dedups completed results (nil = a fresh
	// memory-only store).
	Store *Store
	// Run overrides the experiment executor (nil = experiments.Run).
	Run RunFunc
	// RetainJobs bounds how many terminal jobs stay addressable by ID
	// before the oldest are forgotten (0 = DefaultRetainJobs).
	RetainJobs int
	// Journal, when set, durably records every non-terminal detached job
	// so a restarted engine can Recover the work that was still owed.
	Journal *Journal
	// Retries bounds how many times a transiently failing attempt is
	// retried (0 = DefaultRetries; negative = never retry).
	Retries int
	// RetryBackoff is the base delay before the first retry; subsequent
	// retries double it (capped, jittered). 0 = DefaultRetryBackoff.
	RetryBackoff time.Duration
	// JobTimeout, when positive, arms a wall-clock watchdog per attempt:
	// an attempt still running after this long is cancelled and the job
	// fails with ErrKindTimeout.
	JobTimeout time.Duration
}

// Defaults for Options.
const (
	DefaultQueueDepth   = 64
	DefaultRetainJobs   = 256
	DefaultRetries      = 2
	DefaultRetryBackoff = 100 * time.Millisecond
	// maxRetryBackoff caps the exponential growth of retry delays.
	maxRetryBackoff = 5 * time.Second
)

// ErrQueueFull is returned by Submit when the backlog is at capacity.
// (Alias of the scheduler's error so callers need only one import.)
var ErrQueueFull = sched.ErrQueueFull

// ErrQueueClosed is returned by Submit once the engine is closed or
// draining — shutdown, not backpressure, so the serve layer maps it to
// a distinct machine-readable reason.
var ErrQueueClosed = sched.ErrQueueClosed

// Engine owns the job table and the bounded execution queue.
type Engine struct {
	run        RunFunc
	store      *Store
	queue      *sched.Queue
	journal    *Journal // nil = no durability for in-flight jobs
	retries    int
	backoff    time.Duration
	jobTimeout time.Duration

	mu       sync.Mutex
	closed   bool
	draining bool
	seq      int
	jobs     map[string]*Job // every job still addressable by ID
	byKey    map[string]*Job // live (queued/running) jobs, for dedup
	finished []string        // terminal job IDs in completion order
	retain   int
}

// NewEngine starts the worker set and returns a ready engine. Close it
// to stop accepting work and wait for in-flight jobs.
func NewEngine(opts Options) *Engine {
	workers := opts.Workers
	if workers <= 0 {
		workers = max(runtime.GOMAXPROCS(0)/2, 1)
	}
	depth := opts.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	retain := opts.RetainJobs
	if retain <= 0 {
		retain = DefaultRetainJobs
	}
	retries := opts.Retries
	switch {
	case retries == 0:
		retries = DefaultRetries
	case retries < 0:
		retries = 0
	}
	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = DefaultRetryBackoff
	}
	e := &Engine{
		run:        opts.Run,
		store:      opts.Store,
		queue:      sched.NewQueue(workers, depth),
		journal:    opts.Journal,
		retries:    retries,
		backoff:    backoff,
		jobTimeout: opts.JobTimeout,
		jobs:       map[string]*Job{},
		byKey:      map[string]*Job{},
		retain:     retain,
	}
	if e.run == nil {
		e.run = func(ctx context.Context, id string, cfg experiments.Config) (*report.Result, error) {
			return experiments.Run(ctx, id, cfg)
		}
	}
	if e.store == nil {
		e.store, _ = Open("", 0) // memory-only Open cannot fail
	}
	return e
}

// Store exposes the engine's result store (the server's GET /v1/results
// reads through it).
func (e *Engine) Store() *Store { return e.store }

// Journal exposes the engine's job journal (nil when jobs are not
// durable).
func (e *Engine) Journal() *Journal { return e.journal }

// QueueBacklog reports the submission backlog and its capacity — the
// readiness signal for /v1/readyz.
func (e *Engine) QueueBacklog() (queued, capacity int) { return e.queue.Backlog() }

// Draining reports whether Drain has begun (new submissions are being
// refused).
func (e *Engine) Draining() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.draining
}

// Close cancels every live job, drains the queue, and waits for workers
// to finish. Further Submits return ErrQueueClosed. Shutdown
// cancellations keep their journal entries: the process is exiting, and
// the owed work belongs to the next one (`serve -resume`).
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	live := e.liveLocked()
	e.mu.Unlock()
	for _, j := range live {
		j.cancelForShutdown(&Error{Kind: ErrKindCancelled, Message: "engine shutting down"})
	}
	e.queue.Close()
}

// Drain begins graceful shutdown: new submissions are refused while
// in-flight jobs keep running. It returns nil once every live job has
// reached a terminal state, or ctx's error after cancelling whatever was
// still running at the deadline. Either way, journal entries of jobs
// that did not complete survive for the next process to Recover.
func (e *Engine) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	live := e.liveLocked()
	e.mu.Unlock()
	for _, j := range live {
		select {
		case <-j.Done():
		case <-ctx.Done():
			// Deadline: abandon the wait and stop everything still live
			// (including jobs this loop never reached).
			e.mu.Lock()
			remaining := e.liveLocked()
			e.mu.Unlock()
			for _, r := range remaining {
				r.cancelForShutdown(&Error{Kind: ErrKindCancelled, Message: "server draining"})
			}
			return ctx.Err()
		}
	}
	return nil
}

// liveLocked snapshots the live jobs. Callers hold e.mu.
func (e *Engine) liveLocked() []*Job {
	live := make([]*Job, 0, len(e.byKey))
	for _, j := range e.byKey {
		live = append(live, j)
	}
	return live
}

// Resolver rebuilds the runnable for a journaled task entry (KindTask)
// from its payload — the server's resolver recompiles the grid spec the
// payload carries. Returning an error leaves the entry in the journal
// (a resolver bug must not silently discard owed work).
type Resolver func(entry JournalEntry) (func(context.Context) (*report.Result, error), error)

// Recover resubmits every journaled job through the normal submission
// path: entries whose results landed in the store before the crash
// complete instantly as cached (settling their entries), everything else
// queues again — and grid jobs retrain only the replicas the ledger does
// not already hold. It returns how many entries were resubmitted and a
// joined error for the ones that could not be (those stay journaled).
// Call it once at startup, before serving traffic.
func (e *Engine) Recover(resolve Resolver) (int, error) {
	if e.journal == nil {
		return 0, fmt.Errorf("jobs: Recover needs a journal (Options.Journal)")
	}
	entries, err := e.journal.Entries()
	if err != nil {
		return 0, err
	}
	recovered := 0
	var errs []error
	for _, entry := range entries {
		cfg, err := entry.Config()
		if err != nil {
			errs = append(errs, err)
			continue
		}
		switch entry.Kind {
		case KindExperiment:
			if _, err := e.submit(entry.Experiment, entry.Key, cfg, true, nil, nil); err != nil {
				errs = append(errs, fmt.Errorf("jobs: recovering %q: %w", entry.Key, err))
				continue
			}
		case KindTask:
			if resolve == nil {
				errs = append(errs, fmt.Errorf("jobs: journal entry %q is a task but no resolver was given", entry.Key))
				continue
			}
			run, err := resolve(entry)
			if err != nil {
				errs = append(errs, fmt.Errorf("jobs: resolving journal entry %q: %w", entry.Key, err))
				continue
			}
			if _, err := e.SubmitTask(entry.Experiment, entry.Key, cfg, entry.Payload, run); err != nil {
				errs = append(errs, fmt.Errorf("jobs: recovering %q: %w", entry.Key, err))
				continue
			}
		default:
			errs = append(errs, fmt.Errorf("jobs: journal entry %q has unknown kind %q", entry.Key, entry.Kind))
			continue
		}
		recovered++
	}
	return recovered, errors.Join(errs...)
}

// Submit enqueues a detached run of one experiment: the job runs to
// completion (and persists its result) whether or not anyone is
// watching. A submission whose result is already stored completes
// instantly as cached; one whose key matches a live job joins that job.
func (e *Engine) Submit(experiment string, cfg experiments.Config) (*Job, error) {
	return e.submit(experiment, ResultKey(experiment, cfg), cfg, true, nil, nil)
}

// SubmitAttached enqueues a run owned by its waiters: each call
// registers one waiter, and when every waiter has Released before
// completion the job is cancelled so abandoned work stops burning the
// pool. If a detached submission later joins the same job it upgrades to
// detached and survives its waiters.
func (e *Engine) SubmitAttached(experiment string, cfg experiments.Config) (*Job, error) {
	return e.submit(experiment, ResultKey(experiment, cfg), cfg, false, nil, nil)
}

// SubmitTask enqueues a detached run of an arbitrary task — the grid
// endpoint's entry point. label identifies the task in snapshots (the
// Experiment field); key is its canonical result key and must be
// deterministic for the work run performs, because it addresses the
// persistent store (a restarted engine serves a stored key without
// re-running) and dedups identical live submissions. run receives a
// context carrying the job's progress observer and its cancellation.
//
// payload is the task's durable spec (for grids, the canonical spec
// JSON): it goes into the job journal so a restarted engine can hand it
// to a Resolver and rebuild run. nil payload means the task cannot be
// recovered and is journaled only if a journal is configured anyway
// (the entry will fail to resolve, loudly).
func (e *Engine) SubmitTask(label, key string, cfg experiments.Config, payload json.RawMessage, run func(context.Context) (*report.Result, error)) (*Job, error) {
	if run == nil {
		return nil, fmt.Errorf("jobs: SubmitTask %q: nil run func", label)
	}
	return e.submit(label, key, cfg, true, run, payload)
}

func (e *Engine) submit(experiment, key string, cfg experiments.Config, detached bool, run func(context.Context) (*report.Result, error), payload json.RawMessage) (j *Job, err error) {
	// Probe the store before taking the engine lock: a cold key may lazily
	// load its file from disk, and that I/O must not stall every other
	// engine operation. A result stored between this miss and execution is
	// still caught by the worker-side re-check.
	stored, hit := e.store.Get(key)
	admit := func() bool {
		j, err = e.admitLocked(experiment, key, cfg, detached, run, stored, hit)
		return err == nil
	}
	if e.journal == nil || !detached || hit {
		e.mu.Lock()
		defer e.mu.Unlock()
		admit()
		return j, err
	}
	// A live detached job is durable: its journal entry is written and
	// synced before the engine lock is taken and renamed into place under
	// it, once the job is admitted — so the rename is ordered against the
	// Remove in journalForget — and the directory sync follows the unlock;
	// no disk wait holds the lock. Best-effort: a failed journal write
	// degrades crash durability, not the run itself — the disk problem
	// surfaces through /v1/readyz, not by refusing work.
	kind := KindExperiment
	if run != nil {
		kind = KindTask
	}
	_ = e.journal.record(journalEntry(kind, experiment, key, cfg, payload), &e.mu, admit)
	return j, err
}

// admitLocked joins the live job for key, completes a stored result as a
// cached job, or queues a new job. Callers hold e.mu.
func (e *Engine) admitLocked(experiment, key string, cfg experiments.Config, detached bool, run func(context.Context) (*report.Result, error), stored *report.Result, hit bool) (*Job, error) {
	if e.closed || e.draining {
		return nil, sched.ErrQueueClosed
	}
	if j, ok := e.byKey[key]; ok {
		// Join the live job for this key. A detached join makes the job
		// survive its waiters (and submit journals it).
		j.mu.Lock()
		if detached {
			j.detached = true
		} else {
			j.waiters++
		}
		j.mu.Unlock()
		return j, nil
	}
	e.seq++
	id := fmt.Sprintf("job-%06d", e.seq)
	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		id:         id,
		experiment: experiment,
		cfg:        cfg,
		key:        key,
		engine:     e,
		ctx:        ctx,
		cancel:     cancel,
		done:       make(chan struct{}),
		state:      StateQueued,
		detached:   detached,
		runFn:      run,
	}
	if j.runFn == nil {
		j.runFn = func(ctx context.Context) (*report.Result, error) {
			return e.run(ctx, experiment, cfg)
		}
	}
	if !detached {
		j.waiters = 1
	}
	if hit {
		// Served from the store: the job is born terminal. It is still a
		// first-class object so clients can poll it uniformly. A journal
		// entry left by a crashed predecessor is settled — the result it
		// owed is in the store.
		j.state = StateDone
		j.res = stored
		j.cached = true
		cancel()
		close(j.done)
		e.jobs[id] = j
		e.retire(id)
		if e.journal != nil {
			e.journal.Remove(key)
		}
		return j, nil
	}
	if err := e.queue.Submit(func() { e.execute(j) }); err != nil {
		cancel()
		return nil, err
	}
	e.jobs[id] = j
	e.byKey[key] = j
	return j, nil
}

// journalForget settles j's journal entry after a terminal transition —
// unless the cancellation was a shutdown/drain (the entry IS the resume
// record), or another live job has since claimed the key (its entry must
// survive).
func (e *Engine) journalForget(j *Job, preserve bool) {
	if e.journal == nil || preserve {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, live := e.byKey[j.key]; !live {
		e.journal.Remove(j.key)
	}
}

// Jobs returns every retained job in submission order (the zero-padded
// IDs sort lexicographically) — the GET /v1/jobs listing.
func (e *Engine) Jobs() []*Job {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Job, 0, len(e.jobs))
	for _, j := range e.jobs {
		out = append(out, j)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].id < out[k].id })
	return out
}

// Get returns the job addressed by ID, if it is still retained.
func (e *Engine) Get(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}

// Cancel stops the job addressed by ID: a queued job terminates
// immediately, a running one at its next training-batch boundary.
// Cancelling a terminal job is a no-op. The second return is false when
// no such job is retained.
func (e *Engine) Cancel(id string) (*Job, bool) {
	j, ok := e.Get(id)
	if !ok {
		return nil, false
	}
	j.cancelWith(&Error{Kind: ErrKindCancelled, Message: "cancelled by request"})
	return j, true
}

// execute runs one queued job on an engine worker, retrying transient
// failures with capped exponential backoff.
func (e *Engine) execute(j *Job) {
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while waiting in the queue
		j.mu.Unlock()
		return
	}
	j.state = StateRunning
	ctx := j.ctx
	j.mu.Unlock()

	// A duplicate may have been queued behind the job that computed this
	// key (it missed the byKey dedup window), or the store may have been
	// warmed since submission: re-check before paying for training.
	if res, ok := e.store.Get(j.key); ok {
		e.finish(j, res, nil, true)
		return
	}

	var res *report.Result
	var err error
	for attempt := 0; ; attempt++ {
		res, err = e.runAttempt(j, ctx)
		if err == nil || !IsTransient(err) || attempt >= e.retries || ctx.Err() != nil {
			break
		}
		j.noteRetry()
		if !sleepBackoff(ctx, e.backoff, attempt) {
			break // job cancelled mid-backoff; finish classifies via ctx
		}
	}
	e.finish(j, res, err, false)
}

// runAttempt executes one attempt of j's runner: panics become typed
// errors so the worker goroutine survives, and the optional watchdog
// bounds the attempt's wall-clock time. The "jobs.run" fault point fires
// before the runner so tests can inject failures into the execution path
// itself.
func (e *Engine) runAttempt(j *Job, ctx context.Context) (res *report.Result, err error) {
	actx := ctx
	if e.jobTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, e.jobTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, &panicError{val: r}
			return
		}
		// The watchdog expiring (while the job itself was not cancelled)
		// outranks whatever error the runner surfaced for it.
		if err != nil && actx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
			err = &timeoutError{after: e.jobTimeout}
		}
	}()
	if err := faults.Fire("jobs.run"); err != nil {
		return nil, err
	}
	return j.runFn(experiments.WithProgress(actx, j.setProgress))
}

// SleepBackoff waits out the attempt'th retry delay under the engine's
// retry policy: base doubled per attempt, capped at 5s, with ±25% jitter
// so retry storms decorrelate. It returns false if ctx ended first. The
// fleet worker reuses this for its reconnect and re-upload loops so
// every retrying client in the system backs off the same way.
func SleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	return sleepBackoff(ctx, base, attempt)
}

// sleepBackoff waits out the attempt'th retry delay: base doubled per
// attempt, capped, with ±25% jitter so retry storms decorrelate. It
// returns false if ctx ended first.
func sleepBackoff(ctx context.Context, base time.Duration, attempt int) bool {
	d := base << attempt
	if d > maxRetryBackoff || d <= 0 { // <= 0: shift overflow
		d = maxRetryBackoff
	}
	jitter := time.Duration(rand.Int63n(int64(d)/2+1)) - d/4
	select {
	case <-time.After(d + jitter):
		return true
	case <-ctx.Done():
		return false
	}
}

// finish publishes a job's outcome: the live-key entry is retired, a
// successful result enters the store, and done wakes every watcher.
func (e *Engine) finish(j *Job, res *report.Result, err error, cached bool) {
	e.mu.Lock()
	if e.byKey[j.key] == j {
		delete(e.byKey, j.key)
	}
	e.retire(j.id)
	e.mu.Unlock()

	if err == nil {
		// The store keeps the result addressable (and durable) even after
		// the job itself is forgotten. A failed disk write degrades
		// durability, not correctness: the result still serves from memory.
		if !cached {
			_ = e.store.Put(j.key, res)
		}
	}

	j.mu.Lock()
	if j.state.Terminal() { // lost a race against cancelWith on a queued job
		j.mu.Unlock()
		return
	}
	var pe *panicError
	var te *timeoutError
	switch {
	case err == nil:
		// A cancel may have raced a run that completed anyway; the result
		// won, so the job is done and the provisional cancel cause is moot.
		j.state = StateDone
		j.res = res
		j.cached = cached
		j.err = nil
	case errors.As(err, &te):
		// Checked before the context kinds: the watchdog works through
		// DeadlineExceeded but means "the engine gave up", not "you
		// cancelled it".
		j.state = StateFailed
		j.err = &Error{Kind: ErrKindTimeout, Message: err.Error()}
	case errors.As(err, &pe):
		j.state = StateFailed
		j.err = &Error{Kind: ErrKindPanic, Message: err.Error()}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = StateCancelled
		if j.err == nil {
			j.err = &Error{Kind: ErrKindCancelled, Message: err.Error()}
		}
	default:
		j.state = StateFailed
		j.err = &Error{Kind: ErrKindFailed, Message: err.Error(), Transient: IsTransient(err)}
	}
	preserve := j.preserve
	j.cancel() // release the context's resources
	close(j.done)
	j.mu.Unlock()
	e.journalForget(j, preserve)
}

// retire records a terminal job and forgets the oldest terminal jobs
// beyond the retention bound. Callers hold e.mu.
func (e *Engine) retire(id string) {
	e.finished = append(e.finished, id)
	for len(e.finished) > e.retain {
		delete(e.jobs, e.finished[0])
		e.finished = e.finished[1:]
	}
}

// Job is one submitted experiment run. All state is guarded by mu;
// clients read it through Snapshot.
type Job struct {
	id         string
	experiment string
	cfg        experiments.Config
	key        string
	engine     *Engine
	ctx        context.Context
	cancel     context.CancelFunc
	done       chan struct{}
	// runFn executes the job's work; for experiment submissions it closes
	// over the engine's RunFunc, for task submissions (custom grids) it is
	// caller-provided.
	runFn func(context.Context) (*report.Result, error)

	mu       sync.Mutex
	state    State
	progress Progress
	waiters  int
	detached bool
	cached   bool
	retries  int
	// preserve keeps the journal entry through the terminal transition:
	// set when the cancellation is a shutdown/drain, so the entry survives
	// as the next process's resume record.
	preserve bool
	res      *report.Result
	err      *Error
}

// ID returns the engine-scoped job identifier.
func (j *Job) ID() string { return j.id }

// Key returns the canonical result key the job computes.
func (j *Job) Key() string { return j.key }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Snapshot returns a consistent point-in-time view of the job.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Snapshot{
		ID:         j.id,
		Experiment: j.experiment,
		Key:        j.key,
		State:      j.state,
		Progress:   j.progress,
		Config:     j.cfg.Echo(),
		Cached:     j.cached,
		Retries:    j.retries,
		Error:      j.err,
	}
	if j.state == StateDone {
		s.Result = j.res
	}
	return s
}

// Wait blocks until the job is terminal or ctx is cancelled (which
// abandons the wait, not the job) and returns the job's result or typed
// error.
func (j *Job) Wait(ctx context.Context) (*report.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil, j.err
	}
	return j.res, nil
}

// Release drops one attached waiter (see SubmitAttached). When the last
// waiter of a still-attached job leaves before completion, the job is
// cancelled — the asynchronous analogue of every HTTP client
// disconnecting from a synchronous run. The abandon decision holds both
// the engine and job locks, the same pair submit's join path holds, so
// it is atomic with joins: a client joining concurrently either lands
// before the decision (waiters > 0, no cancel) or finds the key already
// retired and starts a fresh job — it can never inherit a cancellation
// triggered by someone else's disconnect.
func (j *Job) Release() {
	e := j.engine
	e.mu.Lock()
	j.mu.Lock()
	j.waiters--
	abandon := j.waiters <= 0 && !j.detached && !j.state.Terminal()
	if abandon && e.byKey[j.key] == j {
		delete(e.byKey, j.key)
	}
	j.mu.Unlock()
	e.mu.Unlock()
	if abandon {
		j.transitionCancel(&Error{Kind: ErrKindCancelled, Message: "every waiter disconnected"})
	}
}

// setProgress is the experiments.ProgressFunc fed to the runner.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	if done >= j.progress.Done { // deliveries may race; keep monotone
		j.progress = Progress{Done: done, Total: total}
	}
	j.mu.Unlock()
}

// noteRetry counts one retried transient failure.
func (j *Job) noteRetry() {
	j.mu.Lock()
	j.retries++
	j.mu.Unlock()
}

// cancelForShutdown cancels the job like cancelWith but marks its
// journal entry preserved: shutdown cancellation is not a verdict on the
// job, and the entry is what lets the next process resume it.
func (j *Job) cancelForShutdown(cause *Error) {
	j.mu.Lock()
	j.preserve = true
	j.mu.Unlock()
	j.cancelWith(cause)
}

// cancelWith drives the job toward StateCancelled: the live-key entry
// is retired immediately so an identical submission arriving during the
// wind-down starts fresh instead of inheriting the cancellation, then
// the state transition proceeds.
func (j *Job) cancelWith(cause *Error) {
	e := j.engine
	e.mu.Lock()
	if e.byKey[j.key] == j {
		delete(e.byKey, j.key)
	}
	e.mu.Unlock()
	j.transitionCancel(cause)
}

// transitionCancel moves an already key-retired job toward
// StateCancelled: a queued job is finished on the spot (its queue slot
// becomes a no-op), a running job has its context cancelled and
// finishes when the runner observes it.
func (j *Job) transitionCancel(cause *Error) {
	e := j.engine
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.err = cause
		preserve := j.preserve
		j.mu.Unlock()
		e.mu.Lock()
		e.retire(j.id)
		e.mu.Unlock()
		j.cancel()
		close(j.done)
		e.journalForget(j, preserve)
	case StateRunning:
		if j.err == nil {
			j.err = cause
		}
		j.mu.Unlock()
		j.cancel() // finish() completes the transition
	default:
		j.mu.Unlock()
	}
}
