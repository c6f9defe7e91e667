package checkpoint

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func testStore(t *testing.T, s Store) {
	t.Helper()
	if _, _, ok, err := s.Load("job"); err != nil || ok {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := s.Save("job", 3, []byte("snapshot-a")); err != nil {
		t.Fatal(err)
	}
	data, sup, ok, err := s.Load("job")
	if err != nil || !ok || sup != 3 || !bytes.Equal(data, []byte("snapshot-a")) {
		t.Fatalf("load: %q %d %v %v", data, sup, ok, err)
	}
	// Newer snapshot replaces the old one.
	if err := s.Save("job", 7, []byte("snapshot-b-longer")); err != nil {
		t.Fatal(err)
	}
	data, sup, ok, err = s.Load("job")
	if err != nil || !ok || sup != 7 || string(data) != "snapshot-b-longer" {
		t.Fatalf("load after replace: %q %d %v %v", data, sup, ok, err)
	}
	// Accounting covers all writes.
	if got := s.BytesWritten(); got != int64(len("snapshot-a")+len("snapshot-b-longer")) {
		t.Fatalf("bytes = %d", got)
	}
	if s.Saves() != 2 {
		t.Fatalf("saves = %d", s.Saves())
	}
	// Independent jobs do not collide.
	if err := s.Save("other", 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	data, _, _, _ = s.Load("job")
	if string(data) != "snapshot-b-longer" {
		t.Fatal("jobs collided")
	}
}

func TestMemoryStore(t *testing.T) {
	testStore(t, NewMemoryStore())
}

func TestDiskStore(t *testing.T) {
	s, err := NewDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	testStore(t, s)
}

func TestMemoryStoreCopiesData(t *testing.T) {
	s := NewMemoryStore()
	buf := []byte("mutable")
	if err := s.Save("job", 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	data, _, _, _ := s.Load("job")
	if string(data) != "mutable" {
		t.Fatal("store aliased caller buffer")
	}
	data[0] = 'Y'
	again, _, _, _ := s.Load("job")
	if string(again) != "mutable" {
		t.Fatal("load aliased internal buffer")
	}
	// A replacing save refills the stored array; earlier loads keep
	// their bytes.
	if err := s.Save("job", 1, []byte("refill")); err != nil {
		t.Fatal(err)
	}
	if latest, sup, _, _ := s.Load("job"); string(latest) != "refill" || sup != 1 {
		t.Fatalf("load after replace: %q %d", latest, sup)
	}
	if string(again) != "mutable" {
		t.Fatal("replacing save changed an earlier load")
	}
}

func TestDiskStoreSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("job", 4, []byte("persisted")); err != nil {
		t.Fatal(err)
	}
	// A new store over the same directory sees the snapshot bytes AND
	// the superstep it was taken after — the file header makes the
	// metadata durable, not process-local.
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, sup, ok, err := s2.Load("job")
	if err != nil || !ok || string(data) != "persisted" {
		t.Fatalf("reopen load: %q %v %v", data, ok, err)
	}
	if sup != 4 {
		t.Fatalf("reopen superstep = %d, want 4", sup)
	}
}

func TestCompressedStoreRoundTrip(t *testing.T) {
	s := Compressed(NewMemoryStore())
	// Highly repetitive payload: compression must bite.
	payload := bytes.Repeat([]byte("label=42;"), 4096)
	if err := s.Save("job", 3, payload); err != nil {
		t.Fatal(err)
	}
	data, sup, ok, err := s.Load("job")
	if err != nil || !ok || sup != 3 {
		t.Fatalf("load: %v %v %v", sup, ok, err)
	}
	if !bytes.Equal(data, payload) {
		t.Fatal("roundtrip corrupted the snapshot")
	}
	if s.BytesWritten() >= int64(len(payload))/4 {
		t.Fatalf("stored %d bytes for a %d-byte repetitive payload", s.BytesWritten(), len(payload))
	}
	if RawBytes(s) != int64(len(payload)) {
		t.Fatalf("raw bytes = %d", RawBytes(s))
	}
	if RawBytes(NewMemoryStore()) != 0 {
		t.Fatal("RawBytes on a plain store should be 0")
	}
}

func TestCompressedStoreEmptyAndMissing(t *testing.T) {
	s := Compressed(NewMemoryStore())
	if _, _, ok, err := s.Load("nothing"); ok || err != nil {
		t.Fatalf("missing: %v %v", ok, err)
	}
	if err := s.Save("job", 0, nil); err != nil {
		t.Fatal(err)
	}
	data, _, ok, err := s.Load("job")
	if err != nil || !ok || len(data) != 0 {
		t.Fatalf("empty roundtrip: %q %v %v", data, ok, err)
	}
}

// Regression for the in-place-write bug: a crash mid-write used to
// leave a torn blob that Load happily returned. With atomic temp-file +
// rename Saves and a checksummed header, reopening the directory after
// a simulated partial write must surface an error — never bad data.
func TestDiskStoreRejectsTornWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("job", 6, bytes.Repeat([]byte("state"), 100)); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash that tore the published file (e.g. the disk died
	// mid-sector): truncate the payload.
	path := filepath.Join(dir, "job.ckpt")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s2.Load("job"); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	// Same for silent corruption: flip a payload byte, keep the length.
	flipped := append([]byte(nil), raw...)
	flipped[snapHeaderSize] ^= 0xff
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := s2.Load("job"); err == nil {
		t.Fatal("corrupted snapshot loaded without error")
	}
	// And an abandoned temp file (crash before rename) is invisible to
	// Load and removed by the owning job's scoped sweep — which must not
	// touch another job's in-flight temp in the shared directory.
	if err := os.WriteFile(filepath.Join(dir, "job.tmp-123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(dir, "otherjob.tmp-456")
	if err := os.WriteFile(other, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	s3, err := NewDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s3.Load("job"); ok || err != nil {
		t.Fatalf("abandoned temp file visible: ok=%v err=%v", ok, err)
	}
	if err := s3.SweepTemp("job"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "job.tmp-123")); !os.IsNotExist(err) {
		t.Fatal("temp file not swept")
	}
	if _, err := os.Stat(other); err != nil {
		t.Fatal("scoped sweep removed another job's in-flight temp")
	}
}
