package jobs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/faults"
)

// TestStoreTornWriteQuarantinedOnReread: a torn result write (published
// truncated via the "store.write" fault point) degrades to a miss on the
// next read, moves to quarantine with a reason, and the key accepts a
// healthy re-put.
func TestStoreTornWriteQuarantinedOnReread(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm("store.write", faults.Injection{Truncate: true, TruncateAt: 12, Count: 1})
	if err := s.Put("fig1-test-r1-s7", stubResult("fig1")); err != nil {
		t.Fatalf("torn put surfaced an error (the write was acknowledged): %v", err)
	}

	// The successor process: the file is indexed by the scan, then fails
	// to decode on first read.
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get("fig1-test-r1-s7"); ok {
		t.Fatal("torn result served")
	}
	if s2.Quarantined() != 1 || durable.QuarantineCount(dir) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d, want 1 and 1", s2.Quarantined(), durable.QuarantineCount(dir))
	}
	if reason := durable.QuarantineReason(dir, "fig1-test-r1-s7.json"); !strings.Contains(reason, "decode") {
		t.Fatalf("reason = %q", reason)
	}

	// Not wedged: re-put and reopen serve normally.
	if err := s2.Put("fig1-test-r1-s7", stubResult("fig1")); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := s3.Get("fig1-test-r1-s7"); !ok || res.Experiment != "fig1" {
		t.Fatalf("re-put after quarantine: ok=%v res=%+v", ok, res)
	}
}

// TestStoreQuarantinesOrphanedTemp: a temp file left by a crashed writer
// is quarantined by the next Open, not deleted and not indexed.
func TestStoreQuarantinesOrphanedTemp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, tmpPrefix+"fig1-xyz"), []byte(`{"exp`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("orphaned temp file indexed: len %d", s.Len())
	}
	if s.Quarantined() != 1 || durable.QuarantineCount(dir) != 1 {
		t.Fatalf("quarantined = %d, on disk = %d", s.Quarantined(), durable.QuarantineCount(dir))
	}
}

// TestStoreInjectedWriteErrorSurfaces: a hard persist failure reaches
// the caller while the result still serves from memory.
func TestStoreInjectedWriteErrorSurfaces(t *testing.T) {
	defer faults.Reset()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm("store.write", faults.Injection{Err: errors.New("device offline"), Count: 1})
	if err := s.Put("fig1-test-r1-s7", stubResult("fig1")); err == nil {
		t.Fatal("injected write error did not surface")
	}
	if _, ok := s.Get("fig1-test-r1-s7"); !ok {
		t.Fatal("result lost from memory after failed persist")
	}
}

// TestStoreWritableProbe: readiness probe on a healthy directory and
// through the "store.probe" fault point.
func TestStoreWritableProbe(t *testing.T) {
	defer faults.Reset()
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Writable(); err != nil {
		t.Fatalf("healthy store not writable: %v", err)
	}
	faults.Arm("store.probe", faults.Injection{})
	if err := s.Writable(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("probe fault not surfaced: %v", err)
	}
	faults.Reset()
	files, _ := os.ReadDir(s.Dir())
	for _, f := range files {
		if strings.HasPrefix(f.Name(), tmpPrefix) {
			t.Fatalf("probe left %s behind", f.Name())
		}
	}
}

// TestStoreQuarantineIsInvisibleToReindex: once a corrupt file is
// quarantined, reopening the directory must not resurrect it.
func TestStoreQuarantineIsInvisibleToReindex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad-key.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get("bad-key"); ok {
		t.Fatal("corrupt result served")
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 {
		t.Fatalf("quarantined file re-indexed: len %d", s2.Len())
	}
	if _, ok := s2.Get("bad-key"); ok {
		t.Fatal("quarantined result served after reopen")
	}
}

// tmpPrefix is the on-disk prefix of in-progress writes (internal/durable);
// the format pins it, so tests spell it out.
const tmpPrefix = ".tmp-"

// TestStoreTransientReadErrorKeepsResult: a read the filesystem fails
// (an armed "store.read" fault standing in for EMFILE, EACCES, EIO) is a
// miss, not corruption — the healthy result stays indexed and on disk,
// the next Get serves it, and nothing is quarantined.
func TestStoreTransientReadErrorKeepsResult(t *testing.T) {
	defer faults.Reset()
	dir := t.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("fig1-test-r1-s7", stubResult("fig1")); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0) // a cold index, so Get must read the disk
	if err != nil {
		t.Fatal(err)
	}
	faults.Arm("store.read", faults.Injection{Count: 1})
	if _, ok := s2.Get("fig1-test-r1-s7"); ok {
		t.Fatal("Get hit through an armed read fault")
	}
	if res, ok := s2.Get("fig1-test-r1-s7"); !ok || res.Experiment != "fig1" {
		t.Fatalf("second Get after a transient read error: ok=%v", ok)
	}
	if s2.Quarantined() != 0 || durable.QuarantineCount(dir) != 0 {
		t.Fatalf("healthy result quarantined: %d, on disk %d", s2.Quarantined(), durable.QuarantineCount(dir))
	}
	s3, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get("fig1-test-r1-s7"); !ok {
		t.Fatal("result lost across reopen after a transient read error")
	}
}
