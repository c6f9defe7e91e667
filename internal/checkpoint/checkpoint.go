// Package checkpoint provides the stable-storage snapshot stores used
// by the pessimistic rollback-recovery baseline (§2.2): an in-memory
// store (checkpointing to a replicated peer) and an on-disk store
// (checkpointing to a distributed file system). Both report how many
// bytes they absorbed so experiment E6 can quantify the failure-free
// overhead that optimistic recovery avoids. Store is the one store
// interface: a whole-blob snapshot is one key, and every multi-blob
// checkpoint (per-partition epochs, delta chains) is the epoch layout
// of epoch.go over the same Save/Load.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// Store is stable storage for iteration snapshots. Save replaces any
// previous snapshot of the same job; Load returns the latest snapshot.
type Store interface {
	// Save persists the snapshot taken after the given superstep; data
	// is borrowed for the call only, so a store keeps a copy.
	Save(job string, superstep int, data []byte) error
	// Load returns the most recent snapshot and the superstep it was
	// taken after. ok is false if no snapshot exists.
	Load(job string) (data []byte, superstep int, ok bool, err error)
	// BytesWritten returns the cumulative snapshot volume, a proxy for
	// the checkpointing overhead.
	BytesWritten() int64
	// Saves returns how many snapshots were taken.
	Saves() int
}

// Deleter is implemented by stores that can drop a snapshot by key.
// The epoch layer uses it to garbage-collect superseded partition blobs
// and the blobs of discarded (never-committed) epochs; stores without
// it simply accumulate.
type Deleter interface {
	// Delete removes the snapshot stored under job, if any.
	Delete(job string) error
}

// MemoryStore keeps snapshots in process memory.
type MemoryStore struct {
	mu    sync.Mutex
	snaps map[string]memSnap
	bytes int64
	saves int
}

type memSnap struct {
	data      []byte
	superstep int
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{snaps: make(map[string]memSnap)}
}

// Save implements Store.
func (m *MemoryStore) Save(job string, superstep int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// Readers get copies, so the replaced snapshot's array is reused.
	cp := append(m.snaps[job].data[:0], data...)
	m.snaps[job] = memSnap{data: cp, superstep: superstep}
	m.bytes += int64(len(data))
	m.saves++
	return nil
}

// Load implements Store.
func (m *MemoryStore) Load(job string) ([]byte, int, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.snaps[job]
	if !ok {
		return nil, 0, false, nil
	}
	return append([]byte(nil), s.data...), s.superstep, true, nil
}

// BytesWritten implements Store.
func (m *MemoryStore) BytesWritten() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Saves implements Store.
func (m *MemoryStore) Saves() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.saves
}

// Delete implements Deleter.
func (m *MemoryStore) Delete(job string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.snaps, job)
	return nil
}

// DiskStore writes snapshots to files under a directory, syncing them
// to disk like a write to a distributed file system would.
//
// Each file carries a small self-describing header (magic, superstep,
// payload length, CRC-32) so that (a) the superstep a snapshot was
// taken after survives process restarts, and (b) a blob torn by a crash
// mid-write is detected on Load instead of silently restored.
type DiskStore struct {
	dir   string
	mu    sync.Mutex
	bytes int64
	saves int
}

// snapshot file header: magic | superstep | payload length | CRC-32.
const (
	snapMagic      = "OFCK"
	snapHeaderSize = 4 + 8 + 8 + 4
)

func encodeSnapHeader(superstep int, data []byte) []byte {
	h := make([]byte, snapHeaderSize)
	copy(h, snapMagic)
	binary.BigEndian.PutUint64(h[4:], uint64(int64(superstep)))
	binary.BigEndian.PutUint64(h[12:], uint64(len(data)))
	binary.BigEndian.PutUint32(h[20:], crc32.ChecksumIEEE(data))
	return h
}

// decodeSnapFile validates a snapshot file's header and checksum,
// returning the payload and the superstep it was taken after. Any
// mismatch — truncated header, short payload, bad CRC — reports a torn
// blob.
func decodeSnapFile(raw []byte) (data []byte, superstep int, err error) {
	if len(raw) < snapHeaderSize || string(raw[:4]) != snapMagic {
		return nil, 0, fmt.Errorf("torn snapshot: missing header")
	}
	superstep = int(int64(binary.BigEndian.Uint64(raw[4:])))
	n := binary.BigEndian.Uint64(raw[12:])
	sum := binary.BigEndian.Uint32(raw[20:])
	data = raw[snapHeaderSize:]
	if uint64(len(data)) != n {
		return nil, 0, fmt.Errorf("torn snapshot: %d payload bytes, header says %d", len(data), n)
	}
	if crc32.ChecksumIEEE(data) != sum {
		return nil, 0, fmt.Errorf("torn snapshot: checksum mismatch")
	}
	return data, superstep, nil
}

// NewDiskStore creates (if needed) and uses dir for snapshot files.
//
// It deliberately does NOT sweep abandoned temp files: a shared
// directory may hold another job's Save between CreateTemp and Rename,
// and an unscoped sweep (as this constructor used to do) deletes that
// in-flight temp out from under it, failing the other job's write.
// Owners clean up their own leftovers with SweepTemp.
func NewDiskStore(dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %v", dir, err)
	}
	return &DiskStore{dir: dir}, nil
}

// TempSweeper is implemented by stores that keep crash-abandoned
// scratch files around and can sweep them per job. The key prefix
// passed to SweepTemp scopes the sweep to one job's keys: only its own
// leftovers are removed, never another job's in-flight writes.
type TempSweeper interface {
	SweepTemp(jobPrefix string) error
}

// SweepTemp removes temp files abandoned by a crash mid-Save, scoped to
// keys of the owning job: plain snapshots (`job.tmp-*`) and everything
// under the job's composite keys (`job#epoch-…` and `job#commit` —
// both `job#*.tmp-*`). Files of other jobs sharing the
// directory are left alone, including their live in-flight temps.
func (d *DiskStore) SweepTemp(jobPrefix string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("checkpoint: listing %s: %v", d.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.Contains(name, ".tmp-") {
			continue
		}
		if strings.HasPrefix(name, jobPrefix+"#") || strings.HasPrefix(name, jobPrefix+".tmp-") {
			os.Remove(filepath.Join(d.dir, name))
		}
	}
	return nil
}

func (d *DiskStore) path(job string) string {
	return filepath.Join(d.dir, job+".ckpt")
}

// Save implements Store. The write is atomic (temp file + rename) and
// synced; BytesWritten counts payload bytes only, so overhead reports
// stay comparable across stores.
func (d *DiskStore) Save(job string, superstep int, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	tmp, err := os.CreateTemp(d.dir, job+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %v", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(encodeSnapHeader(superstep, data)); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: writing snapshot header: %v", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: writing snapshot: %v", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("checkpoint: syncing snapshot: %v", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: closing snapshot: %v", err)
	}
	if err := os.Rename(name, d.path(job)); err != nil {
		os.Remove(name)
		return fmt.Errorf("checkpoint: publishing snapshot: %v", err)
	}
	d.bytes += int64(len(data))
	d.saves++
	return nil
}

// Load implements Store. A torn blob (crash mid-write before the rename
// landed, or on-disk corruption) returns an error, never bad data.
func (d *DiskStore) Load(job string) ([]byte, int, bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	raw, err := os.ReadFile(d.path(job))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("checkpoint: reading snapshot: %v", err)
	}
	data, superstep, err := decodeSnapFile(raw)
	if err != nil {
		return nil, 0, false, fmt.Errorf("checkpoint: snapshot of %s: %v", job, err)
	}
	return data, superstep, true, nil
}

// Delete implements Deleter: it removes job's snapshot file, if any.
func (d *DiskStore) Delete(job string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.Remove(d.path(job)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("checkpoint: deleting snapshot of %s: %v", job, err)
	}
	return nil
}

// BytesWritten implements Store.
func (d *DiskStore) BytesWritten() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bytes
}

// Saves implements Store.
func (d *DiskStore) Saves() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.saves
}
