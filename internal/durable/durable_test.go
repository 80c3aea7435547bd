package durable

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// namespaces are the Dirs production opens: the replica ledger, the
// result store and the job journal. Every contract test runs once per
// namespace, because each wrapper's fault points carry its own name.
var namespaces = []struct{ ns, ext string }{
	{"ledger", ".nnr"},
	{"store", ".json"},
	{"journal", ".json"},
}

// payload is a record the test codec can verify: a fixed header plus a
// body, so a torn copy fails to decode.
func payload(body string) []byte { return []byte("REC1" + body + "\n") }

func encodeOf(body string) func() ([]byte, error) {
	return func() ([]byte, error) { return payload(body), nil }
}

// decodeInto is the test codec: it rejects anything but a complete
// payload and stores the body in *got.
func decodeInto(got *string) func(io.Reader) error {
	return func(r io.Reader) error {
		b, err := io.ReadAll(r)
		if err != nil {
			return err
		}
		body, ok := strings.CutPrefix(string(b), "REC1")
		if !ok || !strings.HasSuffix(body, "\n") {
			return fmt.Errorf("not a record: %q", b)
		}
		*got = strings.TrimSuffix(body, "\n")
		return nil
	}
}

func openDir(t *testing.T, path, ns, ext string) *Dir {
	t.Helper()
	d, err := Open(path, ns, ext)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func put(t *testing.T, d *Dir, key, body string) {
	t.Helper()
	var mu sync.Mutex
	if err := d.Put(key, encodeOf(body), &mu, nil); err != nil {
		t.Fatal(err)
	}
}

func keysOf(t *testing.T, d *Dir) []string {
	t.Helper()
	keys, err := d.Keys()
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// tempFiles lists the in-progress writes left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			out = append(out, e.Name())
		}
	}
	return out
}

func TestDirContract(t *testing.T) {
	for _, n := range namespaces {
		t.Run(n.ns, func(t *testing.T) {
			t.Run("RoundTrip", func(t *testing.T) {
				d := openDir(t, t.TempDir(), n.ns, n.ext)
				put(t, d, "k1", "hello")
				if _, err := os.Stat(filepath.Join(d.Path(), "k1"+n.ext)); err != nil {
					t.Fatalf("record not published as <key><ext>: %v", err)
				}
				var got string
				if err := d.Load("k1", decodeInto(&got)); err != nil || got != "hello" {
					t.Fatalf("load = %q, %v", got, err)
				}
				put(t, d, "k1", "again") // replaces
				if err := d.Load("k1", decodeInto(&got)); err != nil || got != "again" {
					t.Fatalf("load after replace = %q, %v", got, err)
				}
				d.Remove("k1")
				if err := d.Load("k1", decodeInto(&got)); !Gone(err) {
					t.Fatalf("load after remove: %v", err)
				}
			})

			t.Run("OrphanedTempQuarantinedOnOpen", func(t *testing.T) {
				dir := t.TempDir()
				orphan := tmpPrefix + "k1-123"
				if err := os.WriteFile(filepath.Join(dir, orphan), []byte("REC1half"), 0o644); err != nil {
					t.Fatal(err)
				}
				d := openDir(t, dir, n.ns, n.ext)
				if keys := keysOf(t, d); len(keys) != 0 {
					t.Fatalf("orphan indexed: %v", keys)
				}
				if d.Quarantined() != 1 || QuarantineCount(dir) != 1 {
					t.Fatalf("quarantined = %d, on disk = %d", d.Quarantined(), QuarantineCount(dir))
				}
				if !strings.Contains(QuarantineReason(dir, orphan), "interrupted write") {
					t.Fatalf("reason = %q", QuarantineReason(dir, orphan))
				}
			})

			t.Run("TornWriteQuarantinedOnRead", func(t *testing.T) {
				defer faults.Reset()
				dir := t.TempDir()
				d := openDir(t, dir, n.ns, n.ext)
				faults.Arm(n.ns+".write", faults.Injection{Truncate: true, TruncateAt: 6, Count: 1})
				put(t, d, "k1", "complete record") // the torn write is acknowledged
				var got string
				err := d.Load("k1", decodeInto(&got))
				if !errors.Is(err, ErrCorrupt) || !Gone(err) {
					t.Fatalf("torn record load: %v", err)
				}
				if d.Quarantined() != 1 || QuarantineCount(dir) != 1 {
					t.Fatalf("quarantined = %d, on disk = %d", d.Quarantined(), QuarantineCount(dir))
				}
				if !strings.Contains(QuarantineReason(dir, "k1"+n.ext), "decode") {
					t.Fatalf("reason = %q", QuarantineReason(dir, "k1"+n.ext))
				}
				// The key is not wedged.
				put(t, d, "k1", "complete record")
				if err := d.Load("k1", decodeInto(&got)); err != nil || got != "complete record" {
					t.Fatalf("re-put load = %q, %v", got, err)
				}
			})

			t.Run("InjectedWriteErrorPublishesNothing", func(t *testing.T) {
				defer faults.Reset()
				d := openDir(t, t.TempDir(), n.ns, n.ext)
				faults.Arm(n.ns+".write", faults.Injection{Err: errors.New("device offline"), Count: 1})
				var mu sync.Mutex
				indexed := false
				err := d.Put("k1", encodeOf("x"), &mu, func() bool { indexed = true; return true })
				if err == nil || !strings.Contains(err.Error(), "device offline") {
					t.Fatalf("injected write error not returned: %v", err)
				}
				if !indexed {
					t.Fatal("index step skipped on a failed write")
				}
				if keys := keysOf(t, d); len(keys) != 0 {
					t.Fatalf("failed write published %v", keys)
				}
				if tmp := tempFiles(t, d.Path()); len(tmp) != 0 {
					t.Fatalf("failed write left %v", tmp)
				}
			})

			t.Run("DeclinedPublishLeavesNothing", func(t *testing.T) {
				d := openDir(t, t.TempDir(), n.ns, n.ext)
				put(t, d, "k1", "old")
				var mu sync.Mutex
				if err := d.Put("k1", encodeOf("new"), &mu, func() bool { return false }); err != nil {
					t.Fatal(err)
				}
				var got string
				if err := d.Load("k1", decodeInto(&got)); err != nil || got != "old" {
					t.Fatalf("declined Put replaced the record: %q, %v", got, err)
				}
				if tmp := tempFiles(t, d.Path()); len(tmp) != 0 {
					t.Fatalf("declined Put left %v", tmp)
				}
			})

			t.Run("ReadFaultKeepsRecord", func(t *testing.T) {
				defer faults.Reset()
				dir := t.TempDir()
				d := openDir(t, dir, n.ns, n.ext)
				put(t, d, "k1", "healthy")
				faults.Arm(n.ns+".read", faults.Injection{Count: 1})
				var got string
				err := d.Load("k1", decodeInto(&got))
				if !errors.Is(err, faults.ErrInjected) || Gone(err) {
					t.Fatalf("faulted load: %v (gone %v)", err, Gone(err))
				}
				if err := d.Load("k1", decodeInto(&got)); err != nil || got != "healthy" {
					t.Fatalf("load after the fault = %q, %v", got, err)
				}
				if d.Quarantined() != 0 || QuarantineCount(dir) != 0 {
					t.Fatalf("read fault quarantined a healthy record")
				}
			})

			t.Run("FailedReadIsNotCorruption", func(t *testing.T) {
				// A directory where the record should be opens fine but
				// fails every read (EISDIR): the filesystem's error, not
				// the record's, so nothing is quarantined.
				dir := t.TempDir()
				d := openDir(t, dir, n.ns, n.ext)
				if err := os.Mkdir(filepath.Join(dir, "k1"+n.ext), 0o755); err != nil {
					t.Fatal(err)
				}
				var got string
				err := d.Load("k1", decodeInto(&got))
				if err == nil || Gone(err) || d.Quarantined() != 0 {
					t.Fatalf("failed read: %v (gone %v, quarantined %d)", err, Gone(err), d.Quarantined())
				}
			})

			t.Run("ProbeFault", func(t *testing.T) {
				defer faults.Reset()
				d := openDir(t, t.TempDir(), n.ns, n.ext)
				if err := d.Probe(); err != nil {
					t.Fatalf("healthy dir not writable: %v", err)
				}
				faults.Arm(n.ns+".probe", faults.Injection{})
				if err := d.Probe(); !errors.Is(err, faults.ErrInjected) {
					t.Fatalf("probe fault not surfaced: %v", err)
				}
				if tmp := tempFiles(t, d.Path()); len(tmp) != 0 {
					t.Fatalf("probe left %v", tmp)
				}
			})

			t.Run("ReindexFollowsMtime", func(t *testing.T) {
				dir := t.TempDir()
				d := openDir(t, dir, n.ns, n.ext)
				// Names sort opposite to age, so name order cannot pass.
				base := time.Now().Add(-time.Hour)
				for i, key := range []string{"c", "b", "a"} {
					put(t, d, key, key)
					at := base.Add(time.Duration(i) * time.Minute)
					if err := os.Chtimes(filepath.Join(dir, key+n.ext), at, at); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.WriteFile(filepath.Join(dir, "other.txt"), nil, 0o644); err != nil {
					t.Fatal(err)
				}
				keys := keysOf(t, openDir(t, dir, n.ns, n.ext))
				if strings.Join(keys, ",") != "c,b,a" {
					t.Fatalf("keys = %v, want oldest first c,b,a", keys)
				}
			})

			t.Run("QuarantinedInvisibleToReindex", func(t *testing.T) {
				dir := t.TempDir()
				d := openDir(t, dir, n.ns, n.ext)
				put(t, d, "good", "g")
				put(t, d, "bad", "b")
				d.Quarantine("bad", "test")
				keys := keysOf(t, openDir(t, dir, n.ns, n.ext))
				if strings.Join(keys, ",") != "good" {
					t.Fatalf("keys after quarantine = %v", keys)
				}
			})

			t.Run("InvalidKeysRefused", func(t *testing.T) {
				d := openDir(t, t.TempDir(), n.ns, n.ext)
				var mu sync.Mutex
				for _, key := range []string{"", ".hidden", tmpPrefix + "x", "a/b", `a\b`, ".."} {
					if err := d.Put(key, encodeOf("x"), &mu, nil); err == nil {
						t.Fatalf("key %q accepted", key)
					}
				}
			})
		})
	}
}

// TestMemoryOnlyDir: a Dir opened on "" runs the index step and touches
// no disk.
func TestMemoryOnlyDir(t *testing.T) {
	d := openDir(t, "", "ledger", ".nnr")
	var mu sync.Mutex
	indexed := false
	if err := d.Put("k1", func() ([]byte, error) { t.Fatal("memory-only Put encoded"); return nil, nil }, &mu, func() bool { indexed = true; return true }); err != nil || !indexed {
		t.Fatalf("put: %v, indexed %v", err, indexed)
	}
	var got string
	if keys := keysOf(t, d); len(keys) != 0 {
		t.Fatalf("keys = %v", keys)
	}
	if err := d.Load("k1", decodeInto(&got)); !Gone(err) {
		t.Fatalf("load: %v", err)
	}
	if err := d.Probe(); err != nil {
		t.Fatal(err)
	}
	d.Remove("k1")
	d.Quarantine("k1", "x")
	if d.Quarantined() != 0 {
		t.Fatal("memory-only quarantine counted")
	}
}

// lockProbe is a Locker that reports whether it is held.
type lockProbe struct {
	mu   sync.Mutex
	held bool
}

func (l *lockProbe) Lock()   { l.mu.Lock(); l.held = true }
func (l *lockProbe) Unlock() { l.held = false; l.mu.Unlock() }

// syncCall is one observed fsync: which file, whether the record was
// already published under its final name, and whether the caller's
// lock was held.
type syncCall struct {
	dir, published, locked bool
}

// observeSyncs substitutes the fsync hook for the test's duration.
func observeSyncs(t *testing.T, final string, lock *lockProbe, fail func(dir bool) error) *[]syncCall {
	t.Helper()
	var calls []syncCall
	orig := syncFile
	syncFile = func(f *os.File) error {
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		_, statErr := os.Stat(final)
		c := syncCall{dir: st.IsDir(), published: statErr == nil, locked: lock.held}
		calls = append(calls, c)
		if fail != nil {
			if err := fail(c.dir); err != nil {
				return err
			}
		}
		return orig(f)
	}
	t.Cleanup(func() { syncFile = orig })
	return &calls
}

// TestPutSyncsFileBeforeRenameAndDirAfter pins the write protocol: the
// temp file is fsynced before the rename publishes it, the directory is
// fsynced after, both before Put returns, and neither under the
// caller's lock.
func TestPutSyncsFileBeforeRenameAndDirAfter(t *testing.T) {
	d := openDir(t, t.TempDir(), "ledger", ".nnr")
	final := filepath.Join(d.Path(), "k1.nnr")
	lock := &lockProbe{}
	calls := observeSyncs(t, final, lock, nil)
	var atIndex int
	if err := d.Put("k1", encodeOf("x"), lock, func() bool { atIndex = len(*calls); return true }); err != nil {
		t.Fatal(err)
	}
	want := []syncCall{
		{dir: false, published: false, locked: false}, // temp file, before the rename
		{dir: true, published: true, locked: false},   // directory, after it
	}
	if fmt.Sprint(*calls) != fmt.Sprint(want) {
		t.Fatalf("syncs = %+v, want %+v", *calls, want)
	}
	if atIndex != 1 {
		t.Fatalf("index ran after %d syncs, want 1 (between file and directory)", atIndex)
	}
}

// TestFailedSyncPublishesNothing: a temp file that cannot be made
// durable is never renamed into place and does not linger.
func TestFailedSyncPublishesNothing(t *testing.T) {
	d := openDir(t, t.TempDir(), "store", ".json")
	final := filepath.Join(d.Path(), "k1.json")
	lock := &lockProbe{}
	boom := errors.New("sync failed")
	observeSyncs(t, final, lock, func(dir bool) error {
		if !dir {
			return boom
		}
		return nil
	})
	indexed := false
	if err := d.Put("k1", encodeOf("x"), lock, func() bool { indexed = true; return true }); !errors.Is(err, boom) {
		t.Fatalf("put = %v, want the sync error", err)
	}
	if !indexed {
		t.Fatal("index step skipped")
	}
	if _, err := os.Stat(final); !os.IsNotExist(err) {
		t.Fatalf("unsynced record published (stat err %v)", err)
	}
	if tmp := tempFiles(t, d.Path()); len(tmp) != 0 {
		t.Fatalf("failed sync left %v", tmp)
	}
}

// TestFailedDirSyncSurfaces: the rename already happened, so the record
// is readable, but Put reports that its durability is unconfirmed.
func TestFailedDirSyncSurfaces(t *testing.T) {
	d := openDir(t, t.TempDir(), "journal", ".json")
	lock := &lockProbe{}
	boom := errors.New("dir sync failed")
	observeSyncs(t, filepath.Join(d.Path(), "k1.json"), lock, func(dir bool) error {
		if dir {
			return boom
		}
		return nil
	})
	if err := d.Put("k1", encodeOf("x"), lock, nil); !errors.Is(err, boom) {
		t.Fatalf("put = %v, want the directory sync error", err)
	}
}

// TestConcurrentPutsAndRemoves races writers of overlapping keys
// against removals under one caller lock (run it with -race): every
// record left is complete, and no temp file survives.
func TestConcurrentPutsAndRemoves(t *testing.T) {
	d := openDir(t, t.TempDir(), "ledger", ".nnr")
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				key := fmt.Sprintf("k%d", i%5)
				if err := d.Put(key, encodeOf(fmt.Sprintf("w%d-%d", w, i)), &mu, nil); err != nil {
					t.Error(err)
				}
				if i%7 == 0 {
					mu.Lock()
					d.Remove(key)
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	for _, key := range keysOf(t, d) {
		var got string
		if err := d.Load(key, decodeInto(&got)); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
	}
	if tmp := tempFiles(t, d.Path()); len(tmp) != 0 {
		t.Fatalf("left %v", tmp)
	}
}

// BenchmarkPut publishes one 64 KiB record per op, with and without the
// two fsyncs: the price of power-loss durability per write on the host
// it runs on.
func BenchmarkPut(b *testing.B) {
	rec := make([]byte, 64<<10)
	encode := func() ([]byte, error) { return rec, nil }
	for _, mode := range []string{"fsync", "nosync"} {
		b.Run(mode, func(b *testing.B) {
			if mode == "nosync" {
				orig := syncFile
				syncFile = func(*os.File) error { return nil }
				defer func() { syncFile = orig }()
			}
			d, err := Open(b.TempDir(), "ledger", ".nnr")
			if err != nil {
				b.Fatal(err)
			}
			var mu sync.Mutex
			b.SetBytes(int64(len(rec)))
			for i := 0; i < b.N; i++ {
				if err := d.Put(fmt.Sprintf("k%d", i%64), encode, &mu, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
