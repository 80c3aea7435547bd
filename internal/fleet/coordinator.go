// Package fleet shards replica training across processes.
//
// The paper's experiments are embarrassingly parallel at replica
// granularity: a replica's outcome is fully determined by (cell key,
// replica index), never by where or when it trains. fleet exploits that
// by splitting the population layer's replica misses between a
// Coordinator (in the serving process) and any number of Workers
// (separate processes, typically other machines):
//
//   - The Coordinator implements experiments.Executor. Every replica
//     miss arrives as a self-contained experiments.WorkUnit, is queued,
//     and is handed to workers in batches under TTL leases. Workers
//     heartbeat to keep leases alive; a lease that expires silently
//     requeues at the front of the queue, so surviving workers steal
//     abandoned units. Results come back as checkpoint-codec records
//     (CRC-verified on arrival); a record that fails verification is
//     preserved for diagnosis and rejected, never merged.
//   - The Worker (see worker.go) is a pull → train → upload loop around
//     experiments.TrainUnit, which resolves units against the worker's
//     own catalogs and refuses units whose cell key it cannot reproduce.
//
// The single merge point is unchanged from single-node operation: a
// verified result is delivered to the population flight that enqueued
// the unit, and that flight publishes it to the coordinator's replica
// ledger exactly as if it had trained locally. Duplicate completions
// (two workers racing the same stolen unit, or an upload retried after
// a lost response) are acknowledged and dropped — the first verified
// result wins, and the ledger write is keyed so even a re-merge would
// be idempotent. Bit-identity goldens hold across the fleet because
// workers run the same deterministic training code on the same resolved
// units.
package fleet

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/experiments"
)

// Executor is the seam the coordinator plugs into: an alias for the
// population layer's executor interface, re-exported here so the fleet
// subsystem names its own contract.
type Executor = experiments.Executor

// DefaultTTL is the lease TTL when Options does not set one: long
// enough that a worker heartbeating at TTL/3 survives scheduling
// hiccups, short enough that a SIGKILLed worker's units are stolen
// within seconds.
const DefaultTTL = 15 * time.Second

// MaxLeaseBatch caps how many units one lease request can pull,
// whatever the worker asks for.
const MaxLeaseBatch = 64

// maxLeaseWait caps server-side long-polling on an empty queue.
const maxLeaseWait = 30 * time.Second

// doneCap bounds how many completed units the coordinator remembers for
// duplicate detection; older completions are forgotten (a duplicate of
// a forgotten unit is acknowledged as stale and dropped).
const doneCap = 1024

// unitState is one work unit's position in the lease state machine.
type unitState int

const (
	statePending unitState = iota // queued, waiting for a lease
	stateLeased                   // held by a worker under a TTL deadline
	stateDone                     // verified result merged
	stateDead                     // abandoned (no waiters) or failed; terminal
)

// unit is one enqueued replica training.
type unit struct {
	id       string
	wu       experiments.WorkUnit
	state    unitState
	worker   string    // current lease holder when stateLeased
	deadline time.Time // lease expiry when stateLeased
	waiters  int       // Train calls blocked on this unit
	res      *core.RunResult
	err      error
	done     chan struct{} // closed once res/err is set
}

// workerInfo is per-worker bookkeeping for stats and lease accounting.
type workerInfo struct {
	name      string
	lastSeen  time.Time
	leases    int64
	completed int64
	trains    int64 // worker-reported cumulative replica trains
}

// Options configures a Coordinator.
type Options struct {
	// TTL is the lease time-to-live (0 picks DefaultTTL). Heartbeats and
	// re-leases extend it; a lease past its deadline is stolen by the
	// next lease request.
	TTL time.Duration
	// Dir, when set, is where rejected uploads are preserved: a payload
	// that fails CRC or unit verification is written to its quarantine/
	// subdirectory with a reason sidecar (internal/durable). Empty drops
	// rejected payloads (they are still counted and refused).
	Dir string
}

// Coordinator owns the fleet's work queue and lease state machine. It
// is the experiments.Executor a fleet-enabled server installs on its
// population cache; HTTP handlers (internal/server) translate the wire
// protocol onto Lease, Heartbeat and CompleteUpload. Safe for
// concurrent use.
type Coordinator struct {
	ttl time.Duration
	dir string
	now func() time.Time

	mu        sync.Mutex
	units     map[string]*unit // every live unit plus the done ring
	queue     []*unit          // pending units, FIFO; stolen units re-enter at the front
	doneOrder []string         // completed unit ids, oldest first, bounded by doneCap
	workers   map[string]*workerInfo
	notify    chan struct{} // closed+replaced whenever pending work appears

	completed  int64
	duplicates int64
	expired    int64
	rejected   int64
	failed     int64
}

// New returns an idle coordinator. Install it with
// Populations.SetExecutor to route that cache's replica misses through
// the fleet.
func New(opts Options) *Coordinator {
	ttl := opts.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return &Coordinator{
		ttl:     ttl,
		dir:     opts.Dir,
		now:     time.Now,
		units:   map[string]*unit{},
		workers: map[string]*workerInfo{},
		notify:  make(chan struct{}),
	}
}

// TTL reports the configured lease time-to-live.
func (c *Coordinator) TTL() time.Duration { return c.ttl }

// UnitID derives the stable id of one replica work unit — the same
// digest-stem scheme the replica ledger files use, so a unit id can be
// eyeballed against ledger and quarantine filenames.
func UnitID(cell string, replica int) string {
	sum := sha256.Sum256([]byte(cell))
	return hex.EncodeToString(sum[:8]) + "-r" + strconv.Itoa(replica)
}

// Train implements experiments.Executor: enqueue the unit (or join an
// identical one already queued, leased, or recently completed) and
// block until a worker's verified result arrives or ctx ends. When the
// last waiter abandons an uncompleted unit, the unit dies with it — a
// worker still training it gets "gone" on its next heartbeat.
func (c *Coordinator) Train(ctx context.Context, wu experiments.WorkUnit) (*core.RunResult, error) {
	id := UnitID(wu.Cell, wu.Replica)
	c.mu.Lock()
	u, ok := c.units[id]
	if ok && u.state == stateDone {
		c.mu.Unlock()
		return u.res, u.err
	}
	if !ok {
		u = &unit{id: id, wu: wu, state: statePending, done: make(chan struct{})}
		c.units[id] = u
		c.queue = append(c.queue, u)
		c.wakeLocked()
	}
	u.waiters++
	c.mu.Unlock()

	select {
	case <-u.done:
		return u.res, u.err
	case <-ctx.Done():
		c.abandon(u)
		return nil, ctx.Err()
	}
}

// abandon drops one waiter; the last waiter out kills an uncompleted
// unit so workers stop burning time on results nobody wants.
func (c *Coordinator) abandon(u *unit) {
	c.mu.Lock()
	defer c.mu.Unlock()
	u.waiters--
	if u.waiters <= 0 && u.state != stateDone {
		u.state = stateDead
		delete(c.units, u.id)
	}
}

// wakeLocked signals every blocked lease long-poll. Callers hold c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// reapLocked requeues every expired lease at the front of the queue —
// the steal path. Callers hold c.mu.
func (c *Coordinator) reapLocked(now time.Time) {
	for _, u := range c.units {
		if u.state == stateLeased && now.After(u.deadline) {
			u.state = statePending
			u.worker = ""
			c.queue = append([]*unit{u}, c.queue...)
			c.expired++
		}
	}
}

// touchLocked records a sighting of worker (creating it on first
// contact) and folds in its self-reported train count. Callers hold
// c.mu.
func (c *Coordinator) touchLocked(worker string, trains int64) *workerInfo {
	w := c.workers[worker]
	if w == nil {
		w = &workerInfo{name: worker}
		c.workers[worker] = w
	}
	w.lastSeen = c.now()
	if trains > w.trains {
		w.trains = trains
	}
	return w
}

// Lease hands worker up to max pending units (after reaping expired
// leases, so abandoned work is stolen first), each under a fresh TTL
// deadline. With wait > 0 an empty queue long-polls until work appears,
// the wait elapses, or ctx ends. trains is the worker's cumulative
// self-reported replica-train count (stats).
func (c *Coordinator) Lease(ctx context.Context, worker string, max int, wait time.Duration, trains int64) ([]Leased, time.Duration) {
	if max <= 0 {
		max = 1
	}
	if max > MaxLeaseBatch {
		max = MaxLeaseBatch
	}
	if wait > maxLeaseWait {
		wait = maxLeaseWait
	}
	deadline := c.now().Add(wait)
	for {
		c.mu.Lock()
		now := c.now()
		c.reapLocked(now)
		w := c.touchLocked(worker, trains)
		var out []Leased
		for len(out) < max && len(c.queue) > 0 {
			u := c.queue[0]
			c.queue = c.queue[1:]
			if u.state != statePending { // stolen entry already re-leased, or dead
				continue
			}
			u.state = stateLeased
			u.worker = worker
			u.deadline = now.Add(c.ttl)
			w.leases++
			out = append(out, Leased{ID: u.id, Unit: u.wu})
		}
		notify := c.notify
		c.mu.Unlock()
		if len(out) > 0 || wait <= 0 || !c.now().Before(deadline) || ctx.Err() != nil {
			return out, c.ttl
		}
		remain := deadline.Sub(c.now())
		t := time.NewTimer(remain)
		select {
		case <-notify:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
	}
}

// Leased is one unit handed out under a lease.
type Leased struct {
	ID   string               `json:"id"`
	Unit experiments.WorkUnit `json:"unit"`
}

// Heartbeat statuses.
const (
	// HeartbeatOK: the lease is (still, or again) this worker's; keep
	// training.
	HeartbeatOK = "ok"
	// HeartbeatGone: the unit was stolen, finished by someone else and
	// forgotten, or abandoned; stop training it.
	HeartbeatGone = "gone"
	// HeartbeatDone: a verified result for this unit is already merged;
	// stop training it (an upload would be acknowledged as duplicate).
	HeartbeatDone = "done"
)

// Heartbeat extends worker's lease on unit id and reports the unit's
// fate. A unit that expired but was not yet stolen is quietly
// re-leased to its original worker — slow is not dead.
func (c *Coordinator) Heartbeat(worker, id string, trains int64) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	c.touchLocked(worker, trains)
	u, ok := c.units[id]
	if !ok {
		return HeartbeatGone
	}
	switch u.state {
	case stateDone:
		return HeartbeatDone
	case stateLeased:
		if u.worker != worker {
			return HeartbeatGone // stolen; the thief owns it now
		}
		u.deadline = now.Add(c.ttl)
		return HeartbeatOK
	case statePending:
		// Expired and requeued but not yet stolen: hand it back.
		u.state = stateLeased
		u.worker = worker
		u.deadline = now.Add(c.ttl)
		return HeartbeatOK
	default:
		return HeartbeatGone
	}
}

// Complete statuses.
const (
	// CompleteMerged: first verified result for the unit; delivered to
	// its waiters and merged through the population layer's keyed ledger
	// write.
	CompleteMerged = "merged"
	// CompleteDuplicate: the unit already completed; the upload is
	// acknowledged and dropped.
	CompleteDuplicate = "duplicate"
	// CompleteStale: the unit is unknown (abandoned, or completed long
	// enough ago to be forgotten); the upload is acknowledged and
	// dropped.
	CompleteStale = "stale"
)

// complete delivers a verified (or failed) outcome for unit id. Late
// completions from expired leases are accepted — the work is done and
// deterministic, whoever finished it.
func (c *Coordinator) complete(worker, id string, res *core.RunResult, err error) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.touchLocked(worker, 0)
	u, ok := c.units[id]
	if !ok {
		c.duplicates++
		return CompleteStale
	}
	if u.state == stateDone {
		c.duplicates++
		return CompleteDuplicate
	}
	if err != nil {
		// A worker-side permanent failure (unit refused to resolve, for
		// example): fail the waiters and forget the unit so a future
		// request can retry from scratch.
		u.err = err
		u.state = stateDead
		delete(c.units, id)
		c.failed++
		close(u.done)
		return CompleteMerged
	}
	u.res = res
	u.state = stateDone
	u.worker = worker
	w.completed++
	c.completed++
	c.doneOrder = append(c.doneOrder, id)
	for len(c.doneOrder) > doneCap {
		old := c.doneOrder[0]
		c.doneOrder = c.doneOrder[1:]
		if ou := c.units[old]; ou != nil && ou.state == stateDone {
			delete(c.units, old)
		}
	}
	close(u.done)
	return CompleteMerged
}

// FailUnit reports a worker-side permanent failure for unit id (the
// JSON error form of the complete endpoint).
func (c *Coordinator) FailUnit(worker, id, msg string) string {
	return c.complete(worker, id, nil, fmt.Errorf("fleet: worker %s failed unit %s: %s", worker, id, msg))
}

// CompleteUpload verifies and merges one uploaded checkpoint record. The
// body must decode under the checkpoint codec (CRC-verified) to exactly
// the unit's (cell, replica); anything else is rejected — preserved
// under the coordinator's quarantine directory when one is configured —
// and the lease is left standing so the worker can retry a torn upload.
// This is the gate in front of the merge point: the ledger only ever
// sees results that round-tripped the codec intact.
func (c *Coordinator) CompleteUpload(worker, id string, cell string, res *core.RunResult, decodeErr error, raw []byte) (string, error) {
	if decodeErr != nil {
		c.reject(id, raw, fmt.Sprintf("upload for unit %s failed to decode: %v", id, decodeErr))
		return "", fmt.Errorf("fleet: unit %s: upload rejected: %w", id, decodeErr)
	}
	c.mu.Lock()
	u, ok := c.units[id]
	var wantCell string
	var wantReplica int
	live := false
	if ok {
		wantCell, wantReplica = u.wu.Cell, u.wu.Replica
		live = u.state != stateDone
	}
	c.mu.Unlock()
	if ok && live && (cell != wantCell || res.Replica != wantReplica) {
		c.reject(id, raw, fmt.Sprintf("upload for unit %s carries cell %q replica %d, want cell %q replica %d", id, cell, res.Replica, wantCell, wantReplica))
		return "", fmt.Errorf("fleet: unit %s: upload rejected: wrong cell or replica", id)
	}
	return c.complete(worker, id, res, nil), nil
}

// reject counts a refused upload and preserves its payload for
// diagnosis when a directory is configured.
func (c *Coordinator) reject(id string, raw []byte, reason string) {
	c.mu.Lock()
	c.rejected++
	seq := c.rejected
	dir := c.dir
	c.mu.Unlock()
	if dir == "" || len(raw) == 0 {
		return
	}
	_ = durable.Quarantine(dir, fmt.Sprintf("%s-upload-%d.bin", id, seq), raw, reason)
}

// Stats is the coordinator's observable state for /v1/stats.
type Stats struct {
	LeaseTTLSeconds  float64       `json:"lease_ttl_seconds"`
	PendingUnits     int           `json:"pending_units"`
	LeasedUnits      int           `json:"leased_units"`
	CompletedUnits   int64         `json:"completed_units"`
	DuplicateUploads int64         `json:"duplicate_uploads"`
	ExpiredLeases    int64         `json:"expired_leases"`
	RejectedUploads  int64         `json:"rejected_uploads"`
	FailedUnits      int64         `json:"failed_units"`
	Workers          []WorkerStats `json:"workers,omitempty"`
}

// WorkerStats is one worker's view in Stats.
type WorkerStats struct {
	Name               string  `json:"name"`
	LastSeenSecondsAgo float64 `json:"last_seen_seconds_ago"`
	Leases             int64   `json:"leases"`
	Completed          int64   `json:"completed"`
	ReportedTrains     int64   `json:"reported_trains"`
}

// Stats snapshots queue depth, lease counters and per-worker activity
// (workers sorted by name).
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.reapLocked(now)
	s := Stats{
		LeaseTTLSeconds:  c.ttl.Seconds(),
		CompletedUnits:   c.completed,
		DuplicateUploads: c.duplicates,
		ExpiredLeases:    c.expired,
		RejectedUploads:  c.rejected,
		FailedUnits:      c.failed,
	}
	for _, u := range c.units {
		switch u.state {
		case statePending:
			s.PendingUnits++
		case stateLeased:
			s.LeasedUnits++
		}
	}
	for _, w := range c.workers {
		s.Workers = append(s.Workers, WorkerStats{
			Name:               w.name,
			LastSeenSecondsAgo: now.Sub(w.lastSeen).Seconds(),
			Leases:             w.leases,
			Completed:          w.completed,
			ReportedTrains:     w.trains,
		})
	}
	sort.Slice(s.Workers, func(i, k int) bool { return s.Workers[i].Name < s.Workers[k].Name })
	return s
}
