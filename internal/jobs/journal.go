package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"

	"repro/internal/data"
	"repro/internal/durable"
	"repro/internal/experiments"
)

// Journal entry kinds.
const (
	// KindExperiment marks a registered-experiment submission; recovery
	// resubmits it through the engine's default RunFunc.
	KindExperiment = "experiment"
	// KindTask marks an arbitrary-task submission (custom grids); recovery
	// needs a Resolver to turn the entry's payload back into a runnable.
	KindTask = "task"
)

// JournalEntry is the durable spec of one non-terminal job: everything a
// future process needs to resubmit it. It deliberately stores the
// *request* (experiment or grid spec plus configuration), not any
// partial result — partial training state already persists replica by
// replica in the ledger, so a recovered job retrains only the delta.
type JournalEntry struct {
	// Kind is KindExperiment or KindTask.
	Kind string `json:"kind"`
	// Experiment is the job's label: a registry ID for experiment jobs, a
	// "grid-<hash>" identity for task jobs.
	Experiment string `json:"experiment"`
	// Key is the job's canonical result key (and the entry's filename
	// stem — one entry per key, exactly like the live-job dedup).
	Key string `json:"key"`
	// Scale, Replicas and Seed reconstruct the run configuration.
	Scale    string `json:"scale"`
	Replicas int    `json:"replicas,omitempty"`
	Seed     uint64 `json:"seed"`
	// Payload carries kind-specific recovery data: for task jobs, the
	// canonical grid spec JSON.
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Config reconstructs the run configuration the entry was submitted with.
func (e JournalEntry) Config() (experiments.Config, error) {
	scale, err := data.ParseScale(e.Scale)
	if err != nil {
		return experiments.Config{}, fmt.Errorf("jobs: journal entry %q: %w", e.Key, err)
	}
	return experiments.Config{Scale: scale, Replicas: e.Replicas, Seed: e.Seed}, nil
}

// journalEntry builds the durable form of one submission.
func journalEntry(kind, experiment, key string, cfg experiments.Config, payload json.RawMessage) JournalEntry {
	return JournalEntry{
		Kind:       kind,
		Experiment: experiment,
		Key:        key,
		Scale:      cfg.Scale.String(),
		Replicas:   cfg.Replicas,
		Seed:       cfg.Seed,
		Payload:    payload,
	}
}

// Journal is the durable job journal: one JSON file per non-terminal
// job, keyed (and named) by the job's result key, published through
// internal/durable (temp file, fsync, rename, directory fsync). The
// engine records an entry when a job is queued and removes it when the
// job reaches a genuine terminal state (done, failed, or user-cancelled)
// — but NOT when a shutdown or drain cancels it, so `serve -resume`
// after a crash *or* a graceful restart resubmits exactly the work that
// was still owed. Entries that fail to decode are quarantined, never
// deleted.
//
// A Journal is safe for concurrent use.
type Journal struct {
	mu   sync.Mutex
	disk *durable.Dir
}

// OpenJournal returns a journal over dir, creating it if needed and
// quarantining temp files a crashed writer left behind. The server
// places it next to the result store (a subdirectory, so the store's own
// directory scan never mistakes entries for results).
func OpenJournal(dir string) (*Journal, error) {
	if dir == "" {
		return nil, fmt.Errorf("jobs: journal needs a directory")
	}
	disk, err := durable.Open(dir, "journal", ".json")
	if err != nil {
		return nil, err
	}
	return &Journal{disk: disk}, nil
}

// Dir reports the backing directory.
func (j *Journal) Dir() string { return j.disk.Path() }

// Quarantined reports how many undecodable entries this journal has
// moved aside since it was opened.
func (j *Journal) Quarantined() int64 { return j.disk.Quarantined() }

// Record persists entry under its key, replacing any previous entry for
// that key. The write is durable (see internal/durable); the
// "journal.write" fault point can fail or tear it.
func (j *Journal) Record(e JournalEntry) error { return j.record(e, &j.mu, nil) }

// record persists entry with its rename under mu, and only if publish
// (nil: always) returns true under mu — the engine passes its own lock
// and admission, so the rename is ordered against the engine's Removes.
func (j *Journal) record(e JournalEntry, mu sync.Locker, publish func() bool) error {
	return j.disk.Put(e.Key, encodeJSON(e), mu, publish)
}

// Remove forgets the entry for key (no-op when none exists). Removal is
// how a job's terminal state becomes durable — a crash between the
// terminal transition and Remove merely resubmits a job whose result is
// already in the store, which completes instantly as cached.
func (j *Journal) Remove(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.disk.Remove(key)
}

// Len counts the journaled entries (diagnostics and tests).
func (j *Journal) Len() int {
	entries, err := j.Entries()
	if err != nil {
		return 0
	}
	return len(entries)
}

// Entries returns every decodable journal entry, oldest first (by file
// modification time), so recovery resubmits in roughly original
// submission order. Entries that fail to decode are quarantined and
// skipped; so, for this call only, are entries the filesystem fails to
// read ("journal.read" fault point).
func (j *Journal) Entries() ([]JournalEntry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	keys, err := j.disk.Keys()
	if err != nil {
		return nil, err
	}
	var out []JournalEntry
	for _, key := range keys {
		var e JournalEntry
		err := j.disk.Load(key, func(r io.Reader) error {
			if err := decodeJSON(&e)(r); err != nil {
				return err
			}
			if e.Key == "" || e.Kind == "" {
				return errors.New("entry has no key or kind")
			}
			return nil
		})
		if err == nil {
			out = append(out, e)
		}
	}
	return out, nil
}

// Writable probes the journal directory for write access — the serve
// layer's readiness check (a journal that cannot record makes every
// detached submit fail, so readiness must surface it). The
// "journal.probe" fault point can force a failure.
func (j *Journal) Writable() error { return j.disk.Probe() }
