// Package jobs turns experiment runs into first-class, durable objects:
// an asynchronous job engine over a bounded queue, a content-addressed
// on-disk store for completed results, and a journal of unfinished jobs.
//
// # Engine
//
// Submit enqueues one experiment run and returns immediately with a Job
// whose snapshot carries status (queued / running / done / failed /
// cancelled), progress (grid cells completed out of total, fed by the
// experiments package's progress observer), and a typed *Error on
// failure. Identical live submissions (same result key) join the same
// job, and submissions whose result already sits in the store complete
// instantly as cached — the engine is the singleflight layer that the
// HTTP server and CLI build on. Cancel aborts a queued job immediately
// and a running job at its next training-batch boundary via context
// cancellation.
//
// # Store
//
// The Store persists completed report.Results as JSON files keyed by
// the canonical result key (see ResultKey) through internal/durable:
// each write goes to a temp file in the same directory, is fsynced,
// published by atomic rename and made durable by a directory fsync, so
// neither a crash nor a power cut can leave a torn result visible or
// lose an acknowledged one. The in-memory index is an LRU with an
// intrusive doubly-linked list (O(1) touch and eviction); evicting an
// entry also unlinks its file, so the directory is bounded by the same
// capacity. Opening a Store re-indexes the directory in
// modification-time order, which is how a restarted server serves
// previously computed results without retraining anything.
//
// # Journal
//
// The Journal keeps one JSON file per unfinished detached job, written
// the same durable way and removed when the job settles; Engine.Recover
// (`serve -resume`) resubmits what it holds after a restart.
//
// # Concurrency and determinism contract
//
// Engine, Store and Journal are safe for concurrent use by any number
// of goroutines. Results are durable, and so are detached jobs that have
// not settled: the journal survives a restart and recovery resubmits
// them (attached jobs, whose callers died with the process, are not
// journaled). Because every experiment derives its randomness from
// explicit seeds, a result loaded from disk is bit-identical to what
// rerunning the same configuration would produce — serving from the
// store is an optimization, never an approximation.
package jobs
