package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/durable"
	"repro/internal/experiments"
	"repro/internal/lru"
	"repro/internal/report"
)

// DefaultStoreCapacity bounds the result index when Open is given a
// non-positive capacity.
const DefaultStoreCapacity = 64

// ResultKey is the canonical, URL- and filename-safe identity of a run:
// {id}-{scale}-r{replicas}-s{seed} with the scale-default replica count
// resolved, so equivalent configurations collide. It is the store's
// content address: two configurations with the same key are guaranteed
// (by the determinism contract) to produce bit-identical results.
func ResultKey(id string, cfg experiments.Config) string {
	return fmt.Sprintf("%s-%s-r%d-s%d", id, cfg.Scale, cfg.EffectiveReplicas(), cfg.Seed)
}

// Store is a bounded, optionally disk-backed cache of completed results.
// The index is LRU-ordered via the shared intrusive doubly-linked list
// (internal/lru — the same machinery behind the replica ledger's GC):
// Get and Put are O(1) including eviction. With a directory configured,
// Put persists each result as {key}.json through internal/durable (temp
// file, fsync, rename, directory fsync), eviction unlinks the file, and
// Open rebuilds the index from the directory — so results survive
// process restarts and power loss, and the directory never outgrows the
// configured capacity.
type Store struct {
	mu   sync.Mutex
	disk *durable.Dir // memory-only when opened on ""
	cap  int
	// idx values are nil for entries known only from the directory scan;
	// Get loads them lazily.
	idx *lru.List[string, *report.Result]

	// hits/misses count Get outcomes since Open. Every submission probes
	// the store first, so these are the result-cache traffic counters the
	// stats and metrics endpoints report.
	hits   atomic.Int64
	misses atomic.Int64
}

// Open returns a Store holding at most capacity results (<= 0 picks
// DefaultStoreCapacity). dir "" keeps the store memory-only; otherwise
// the directory is created if needed and existing results are indexed in
// modification-time order (newest = most recently used), with anything
// beyond capacity evicted oldest-first. Leftover temp files from a
// crashed writer are quarantined; files that fail to parse are
// quarantined at read time rather than trusted (or deleted).
func Open(dir string, capacity int) (*Store, error) {
	if capacity <= 0 {
		capacity = DefaultStoreCapacity
	}
	disk, err := durable.Open(dir, "store", ".json")
	if err != nil {
		return nil, err
	}
	keys, err := disk.Keys()
	if err != nil {
		return nil, err
	}
	s := &Store{disk: disk, cap: capacity, idx: lru.New[string, *report.Result]()}
	for _, key := range keys { // oldest first, so the newest ends up MRU
		s.idx.PushFront(key, nil)
	}
	s.evictTo(s.cap)
	return s, nil
}

// Dir reports the backing directory ("" when memory-only).
func (s *Store) Dir() string { return s.disk.Path() }

// Len reports the number of indexed results.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.idx.Len()
}

// Get returns the result stored under key, loading it from disk if the
// entry was indexed by Open but not yet read. A hit refreshes the entry's
// LRU position. A file that no longer parses is moved to quarantine
// (with a reason sidecar), dropped from the index and reported as a
// miss — so one corrupt file degrades that key to a recompute instead of
// wedging it, and the evidence survives for diagnosis. A read the
// filesystem fails is a miss that keeps the entry for the next Get.
func (s *Store) Get(key string) (*report.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.idx.Get(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	if e.Value == nil {
		res := new(report.Result)
		if err := s.disk.Load(key, decodeJSON(res)); err != nil {
			if durable.Gone(err) {
				s.idx.Remove(e)
			}
			s.misses.Add(1)
			return nil, false
		}
		e.Value = res
	}
	s.idx.MoveToFront(e)
	s.hits.Add(1)
	return e.Value, true
}

// Hits reports how many Get calls were served from the store since
// Open.
func (s *Store) Hits() int64 { return s.hits.Load() }

// Misses reports how many Get calls found nothing since Open.
func (s *Store) Misses() int64 { return s.misses.Load() }

// Quarantined reports how many corrupt files this store has moved to
// quarantine since it was opened.
func (s *Store) Quarantined() int64 { return s.disk.Quarantined() }

// Writable probes the backing directory for write access — the serve
// layer's readiness check. A memory-only store is always writable.
func (s *Store) Writable() error { return s.disk.Probe() }

// Put stores res under key, evicting the least recently used entries
// (and their files) beyond capacity. With a directory configured the
// result is also written to {key}.json durably (see internal/durable;
// encoding and both fsyncs run outside the index lock); the in-memory
// index is updated even if the disk write fails, and the write error is
// returned so callers can surface degraded durability.
func (s *Store) Put(key string, res *report.Result) error {
	if res == nil {
		return fmt.Errorf("jobs: refusing to store nil result under %q", key)
	}
	return s.disk.Put(key, encodeJSON(res), &s.mu, func() bool {
		if e, ok := s.idx.Get(key); ok {
			e.Value = res
			s.idx.MoveToFront(e)
		} else {
			s.idx.PushFront(key, res)
			s.evictTo(s.cap)
		}
		return true
	})
}

// encodeJSON and decodeJSON are the on-disk codec of the store and the
// journal: indented JSON with a trailing newline.
func encodeJSON(v any) func() ([]byte, error) {
	return func() ([]byte, error) {
		b, err := json.MarshalIndent(v, "", "  ")
		return append(b, '\n'), err
	}
}

func decodeJSON(v any) func(io.Reader) error {
	return func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		return json.Unmarshal(b, v)
	}
}

// Keys lists the indexed keys from most to least recently used (tests
// and diagnostics).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, s.idx.Len())
	for e := s.idx.Front(); e != nil; e = e.Next() {
		out = append(out, e.Key)
	}
	return out
}

// evictTo drops the least recently used entries, files included, until
// at most n remain, so eviction bounds the directory, not just memory.
// Callers hold s.mu.
func (s *Store) evictTo(n int) {
	for s.idx.Len() > n {
		e := s.idx.Back()
		s.idx.Remove(e)
		s.disk.Remove(e.Key)
	}
}
