// Package durable owns records stored one file per key in a directory:
// it is the single durable-write path under the replica ledger
// (internal/ledger), the result store and the job journal
// (internal/jobs). A record is the file <key><ext>. The wrappers keep
// their own in-memory index, codec and counters and route every file
// operation through a Dir.
//
// Write protocol (DESIGN.md §11). Put encodes the payload, writes it to
// a ".tmp-" file in the same directory, fsyncs that file, renames it
// over <key><ext>, fsyncs the directory, and returns only after the last
// step — so an acknowledged record survives power loss, not just process
// death. The caller's index lock is held across the rename only:
// encoding, the temp write and both syncs run outside it, so lock hold
// times do not grow with the disk, while an eviction's unlink (which
// runs under the same lock) can never race the rename and resurrect an
// evicted record. Removals are not synced: a Remove lost to power loss
// resubmits a cached job or reindexes an evicted record, both harmless.
//
// Corruption degrades, it never destroys. Open moves ".tmp-" files left
// by a crashed writer into quarantine/, and Load moves a file whose
// bytes were read intact but do not decode there too; each gets a
// <name>.reason sidecar and is counted. A read the filesystem fails
// (EMFILE, EACCES, EIO, an injected fault) leaves the file where it is:
// a transient error costs one miss, never the record. Keys skips
// subdirectories, so quarantined files are invisible to reindexing:
//
//	dir/
//	  good-record.json
//	  quarantine/
//	    bad-record.json          ← the corrupt file, moved verbatim
//	    bad-record.json.reason   ← one line: why it was quarantined
//
// Fault points (internal/faults): a Dir opened under namespace ns fires
// "<ns>.write" in Put (FireWrite: fail or tear the payload), "<ns>.read"
// in Open and Load, and "<ns>.probe" in Probe.
//
// A Dir opened on "" is memory-only: Put runs only the caller's index
// step, Keys is empty, reads report fs.ErrNotExist, and Remove and
// quarantine do nothing. A Dir is safe for concurrent use; ordering a
// Put against a Remove of the same key is the caller's lock.
package durable

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// QuarantineDir is the subdirectory corrupt files move into.
const QuarantineDir = "quarantine"

const (
	// tmpPrefix marks in-progress writes; leftovers from a crashed writer
	// were never published and are quarantined on Open.
	tmpPrefix = ".tmp-"
	// reasonExt marks the sidecar files carrying quarantine reasons.
	reasonExt = ".reason"
)

// ErrCorrupt is wrapped by a Load error when the file was read intact
// but failed to decode; the file has been quarantined.
var ErrCorrupt = errors.New("durable: record failed to decode")

// syncFile is the fsync Put runs on its temp file and then on the
// directory. Tests substitute it to observe the ordering.
var syncFile = (*os.File).Sync

// Dir is one directory of records. See the package comment.
type Dir struct {
	path, ns, ext string
	quarantined   atomic.Int64
}

// Open returns the Dir over path for records named <key><ext>, whose
// fault points and errors carry the namespace ns. It creates the
// directory if needed and quarantines temp files a crashed writer left
// behind. path "" gives a memory-only Dir.
func Open(path, ns, ext string) (*Dir, error) {
	d := &Dir{path: path, ns: ns, ext: ext}
	if path == "" {
		return d, nil
	}
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("%s: opening %s: %w", ns, path, err)
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("%s: scanning %s: %w", ns, path, err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), tmpPrefix) {
			// Never published, so never servable — but evidence of the
			// crash, so preserved rather than deleted.
			d.quarantine(e.Name(), "orphaned temp file from an interrupted write")
		}
	}
	return d, nil
}

// Path reports the backing directory ("" when memory-only).
func (d *Dir) Path() string { return d.path }

// Quarantined reports how many files this Dir has moved to quarantine.
func (d *Dir) Quarantined() int64 { return d.quarantined.Load() }

// validKey rejects keys that would escape the directory or collide with
// temp and hidden files.
func validKey(key string) bool {
	return key != "" && !strings.ContainsAny(key, "/\\") && !strings.HasPrefix(key, ".")
}

func (d *Dir) file(key string) string { return filepath.Join(d.path, key+d.ext) }

// Keys lists every record's key, oldest modification time first, so a
// caller pushing them onto the front of an LRU in order ends with the
// newest as the most recently used.
func (d *Dir) Keys() ([]string, error) {
	if d.path == "" {
		return nil, nil
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("%s: scanning %s: %w", d.ns, d.path, err)
	}
	type onDisk struct {
		key string
		mod int64
	}
	var found []onDisk
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), d.ext)
		if e.IsDir() || !ok || !validKey(key) {
			continue
		}
		if info, err := e.Info(); err == nil {
			found = append(found, onDisk{key, info.ModTime().UnixNano()})
		}
	}
	slices.SortStableFunc(found, func(a, b onDisk) int { return cmp.Compare(a.mod, b.mod) })
	keys := make([]string, len(found))
	for i, f := range found {
		keys[i] = f.key
	}
	return keys, nil
}

// Put publishes the payload encode returns as key's record. It encodes,
// writes and fsyncs a temp file before taking mu; under mu it runs
// locked — the caller's index update, which runs even when the disk
// write failed — and then renames the temp file into place, unless
// locked returned false (nil locked counts as true); after releasing mu
// it fsyncs the directory. It returns only after that last step, with
// the first error met. A record not renamed into place leaves no temp
// file. A memory-only Dir runs locked under mu and returns nil.
func (d *Dir) Put(key string, encode func() ([]byte, error), mu sync.Locker, locked func() bool) error {
	if !validKey(key) {
		return fmt.Errorf("%s: invalid key %q", d.ns, key)
	}
	var tmp string
	var err error
	if d.path != "" {
		tmp, err = d.writeTemp(key, encode)
	}
	mu.Lock()
	publish := locked == nil || locked()
	if tmp != "" && publish {
		err = os.Rename(tmp, d.file(key))
	}
	mu.Unlock()
	if tmp != "" {
		if err == nil && publish {
			err = d.syncDir()
		} else {
			_ = os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: persisting %s: %w", d.ns, key, err)
	}
	return nil
}

// writeTemp encodes the payload into a synced temp file beside key's
// record and returns its path; on failure it leaves nothing behind.
func (d *Dir) writeTemp(key string, encode func() ([]byte, error)) (string, error) {
	b, err := encode()
	if err == nil {
		b, err = faults.FireWrite(d.ns+".write", b)
	}
	if err != nil {
		return "", err
	}
	f, err := os.CreateTemp(d.path, tmpPrefix+key+"-*")
	if err != nil {
		return "", err
	}
	_, err = f.Write(b)
	if err == nil {
		err = syncFile(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		_ = os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// syncDir makes the renames into the directory durable.
func (d *Dir) syncDir() error {
	f, err := os.Open(d.path)
	if err != nil {
		return err
	}
	err = syncFile(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Open opens key's record for reading.
func (d *Dir) Open(key string) (*os.File, error) {
	if err := faults.Fire(d.ns + ".read"); err != nil {
		return nil, err
	}
	if d.path == "" {
		return nil, fs.ErrNotExist
	}
	return os.Open(d.file(key))
}

// Load opens key's record and passes its contents to decode. An error
// opening or reading the file is returned as is and leaves the file in
// place. When decode fails on bytes that were read intact, the file is
// quarantined with decode's error as the reason and the returned error
// wraps ErrCorrupt. See Gone.
func (d *Dir) Load(key string, decode func(io.Reader) error) error {
	f, err := d.Open(key)
	if err != nil {
		return err
	}
	r := &readErr{r: f}
	err = decode(r)
	f.Close()
	if err == nil || r.err != nil {
		return r.err // nil, or the filesystem's fault rather than the record's
	}
	d.Quarantine(key, fmt.Sprintf("record failed to decode: %v", err))
	return fmt.Errorf("%w: %s%s: %v", ErrCorrupt, key, d.ext, err)
}

// readErr remembers the first error the underlying reader returned
// other than io.EOF, which separates a failed read from a failed decode.
type readErr struct {
	r   io.Reader
	err error
}

func (e *readErr) Read(p []byte) (int, error) {
	n, err := e.r.Read(p)
	if err != nil && err != io.EOF && e.err == nil {
		e.err = err
	}
	return n, err
}

// Gone reports whether a Load error means the record has left the
// directory — it never existed, vanished, or was just quarantined — so
// the caller drops the key from its index. Any other error leaves the
// record and its index entry in place for the next read.
func Gone(err error) bool {
	return errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt)
}

// Remove unlinks key's record (no-op when absent or memory-only).
func (d *Dir) Remove(key string) {
	if d.path != "" {
		_ = os.Remove(d.file(key))
	}
}

// Probe checks the directory for write access — the serve layer's
// readiness check. A memory-only Dir passes unless its fault is armed.
func (d *Dir) Probe() error {
	if err := faults.Fire(d.ns + ".probe"); err != nil {
		return err
	}
	if d.path == "" {
		return nil
	}
	f, err := os.CreateTemp(d.path, tmpPrefix+"probe-*")
	if err != nil {
		return fmt.Errorf("%s: %s not writable: %w", d.ns, d.path, err)
	}
	f.Close()
	_ = os.Remove(f.Name())
	return nil
}

// Quarantine moves key's record aside with reason and counts it. A
// failed move leaves the file in place for the next attempt — never a
// silent delete.
func (d *Dir) Quarantine(key, reason string) { d.quarantine(key+d.ext, reason) }

func (d *Dir) quarantine(name, reason string) {
	if d.path != "" && Quarantine(d.path, name, nil, reason) == nil {
		d.quarantined.Add(1)
	}
}

// Quarantine preserves name under dir/quarantine/ beside a
// <name>.reason sidecar. With raw nil the file dir/name is moved there
// (a record that failed to decode, an orphaned temp file); otherwise raw
// is written there directly (a payload that never was a record, such as
// a rejected fleet upload). The sidecar write is best-effort; a name
// quarantined twice keeps the latest copy.
func Quarantine(dir, name string, raw []byte, reason string) error {
	qdir := filepath.Join(dir, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	dst := filepath.Join(qdir, name)
	var err error
	if raw == nil {
		err = os.Rename(filepath.Join(dir, name), dst)
	} else {
		err = os.WriteFile(dst, raw, 0o644)
	}
	if err != nil {
		return fmt.Errorf("quarantine: %w", err)
	}
	_ = os.WriteFile(dst+reasonExt, []byte(reason+"\n"), 0o644)
	return nil
}

// QuarantineCount reports how many files are quarantined under dir (0
// on any scan error — counting is diagnostic, never load-bearing).
func QuarantineCount(dir string) int {
	entries, _ := os.ReadDir(filepath.Join(dir, QuarantineDir))
	n := 0
	for _, e := range entries {
		if !e.IsDir() && !strings.HasSuffix(e.Name(), reasonExt) {
			n++
		}
	}
	return n
}

// QuarantineReason returns the recorded reason for a quarantined name
// ("" when none was written).
func QuarantineReason(dir, name string) string {
	b, _ := os.ReadFile(filepath.Join(dir, QuarantineDir, name+reasonExt))
	return strings.TrimSpace(string(b))
}
