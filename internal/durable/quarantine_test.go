package durable

import (
	"os"
	"path/filepath"
	"testing"
)

func TestMovePreservesFileAndReason(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Quarantine(dir, "bad.json", nil, "decode failure: unexpected EOF"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.json")); !os.IsNotExist(err) {
		t.Fatalf("original still present (err = %v)", err)
	}
	moved, err := os.ReadFile(filepath.Join(dir, QuarantineDir, "bad.json"))
	if err != nil || string(moved) != "{torn" {
		t.Fatalf("quarantined content = %q, %v", moved, err)
	}
	if got := QuarantineReason(dir, "bad.json"); got != "decode failure: unexpected EOF" {
		t.Fatalf("reason = %q", got)
	}
	if got := QuarantineCount(dir); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
}

// TestQuarantineWritesRawPayload: bytes that never were a file in the
// directory (a rejected fleet upload) land in quarantine verbatim, with
// a reason, and count like a moved file.
func TestQuarantineWritesRawPayload(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fleet") // created on demand
	if err := Quarantine(dir, "u1-upload-1.bin", []byte("NNR\x00torn"), "crc mismatch"); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, "u1-upload-1.bin"))
	if err != nil || string(got) != "NNR\x00torn" {
		t.Fatalf("quarantined payload = %q, %v", got, err)
	}
	if QuarantineCount(dir) != 1 || QuarantineReason(dir, "u1-upload-1.bin") != "crc mismatch" {
		t.Fatalf("count = %d, reason = %q", QuarantineCount(dir), QuarantineReason(dir, "u1-upload-1.bin"))
	}
}

func TestMoveMissingFileErrors(t *testing.T) {
	if err := Quarantine(t.TempDir(), "ghost", nil, "x"); err == nil {
		t.Fatal("moving a missing file succeeded")
	}
}

func TestListEmptyWhenNeverQuarantined(t *testing.T) {
	dir := t.TempDir()
	if QuarantineCount(dir) != 0 {
		t.Fatal("count != 0")
	}
	if QuarantineReason(dir, "x") != "" {
		t.Fatal("reason for unknown name not empty")
	}
}

func TestRequarantineKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	for i, content := range []string{"first", "second"} {
		if err := os.WriteFile(filepath.Join(dir, "f"), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Quarantine(dir, "f", nil, "round"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(filepath.Join(dir, QuarantineDir, "f"))
	if err != nil || string(got) != "second" {
		t.Fatalf("kept %q, %v", got, err)
	}
	if QuarantineCount(dir) != 1 {
		t.Fatalf("count = %d", QuarantineCount(dir))
	}
}
