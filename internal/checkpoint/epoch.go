package checkpoint

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"optiflow/internal/colbytes"
)

// Epoch-addressed checkpoint layout with an atomic commit marker, built
// on top of any Store. Every multi-blob checkpoint writes each blob
// under a (job, epoch, slot) key — the asynchronous pipeline one slot
// per state partition while the next superstep already runs, a delta
// chain its base in slot 0 and its i-th delta in slot i. Only once
// every blob of the epoch has landed does a single Commit publish the
// CommitRecord under the job's commit key — the one atomic step of the
// protocol. Restore reads the commit record first and only ever
// assembles blobs it references, so a torn (partially written, crashed
// or discarded) epoch is invisible: the previous committed epoch stays
// the restore target until the next marker lands. Compression is the
// store's business (Compressed), not the record's.

// CommitRecord is the atomically published description of one committed
// checkpoint epoch.
type CommitRecord struct {
	// Epoch is the commit's own epoch number (monotonically increasing
	// per writer).
	Epoch uint64
	// Superstep is the superstep the snapshot was taken after (-1 for
	// the initial state).
	Superstep int
	// Parts maps each slot (a state partition, or a link of a delta
	// chain) to the epoch whose blob holds its current contents. A full
	// snapshot maps every slot to Epoch; an incremental one keeps
	// unchanged partitions, and a delta append the chain's older links,
	// pointing at older epochs.
	Parts map[int]uint64
}

// recordTag is the format byte a commit record starts with. A gob
// stream's first byte is a message length — below 0x80, or 0xF8 and up
// for a long one — so a record written by the gob codec this one
// replaced is a *RecordError, not a misparse; so is one of the 0xC3
// records that still carried a compressed flag.
const recordTag byte = 0xC4

// RecordError rejects a commit record that does not decode: another
// format, a truncated body or trailing bytes, partitions duplicated or
// out of order, or partition and epoch columns of unequal length.
type RecordError struct{ Reason string }

func (e *RecordError) Error() string { return "checkpoint: bad commit record: " + e.Reason }

// appendRecord encodes rec: recordTag; epoch and superstep; then Parts
// as a u32 slot column in ascending order and the u64 epoch column
// beside it.
func appendRecord(dst []byte, rec CommitRecord) []byte {
	parts := slices.Sorted(maps.Keys(rec.Parts))
	dst = colbytes.AppendU64(append(dst, recordTag), rec.Epoch)
	dst = colbytes.AppendU64(dst, uint64(rec.Superstep))
	dst = colbytes.AppendU32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = colbytes.AppendU32(dst, uint32(p))
	}
	dst = colbytes.AppendU32(dst, uint32(len(parts)))
	for _, p := range parts {
		dst = colbytes.AppendU64(dst, rec.Parts[p])
	}
	return dst
}

// decodeRecord decodes a commit record, failing with a *RecordError.
// Every column count is checked against the bytes there before
// anything is allocated.
func decodeRecord(b []byte) (CommitRecord, error) {
	if len(b) == 0 || b[0] != recordTag {
		return CommitRecord{}, &RecordError{"not a commit record"}
	}
	r := colbytes.NewReader(b[1:])
	rec := CommitRecord{Epoch: r.U64(), Superstep: int(int64(r.U64()))}
	parts, epochs := r.U32s(nil), r.U64s(nil)
	switch {
	case r.Err() != nil:
		return CommitRecord{}, &RecordError{r.Err().Error()}
	case r.Remaining() != 0:
		return CommitRecord{}, &RecordError{fmt.Sprintf("%d trailing bytes", r.Remaining())}
	case len(parts) != len(epochs):
		return CommitRecord{}, &RecordError{fmt.Sprintf("%d partitions, %d epochs", len(parts), len(epochs))}
	}
	if len(parts) > 0 {
		rec.Parts = make(map[int]uint64, len(parts))
	}
	for i, p := range parts {
		if i > 0 && p <= parts[i-1] {
			return CommitRecord{}, &RecordError{fmt.Sprintf("partition %d after %d", p, parts[i-1])}
		}
		rec.Parts[int(p)] = epochs[i]
	}
	return rec, nil
}

func epochPartKey(job string, epoch uint64, part int) string {
	return job + "#epoch-" + strconv.FormatUint(epoch, 10) + "#part-" + strconv.Itoa(part)
}

func commitKey(job string) string { return job + "#commit" }

// SaveEpochPartition persists one slot's blob of an uncommitted epoch.
// The blob stays invisible to LoadCommitted until Commit publishes a
// record referencing it.
func SaveEpochPartition(s Store, job string, epoch uint64, superstep, part int, data []byte) error {
	if err := s.Save(epochPartKey(job, epoch, part), superstep, data); err != nil {
		return fmt.Errorf("checkpoint: saving %s epoch %d partition %d: %v", job, epoch, part, err)
	}
	return nil
}

// Commit atomically publishes rec as job's current checkpoint. Every
// partition blob rec references must already be saved.
func Commit(s Store, job string, rec CommitRecord) error {
	if err := s.Save(commitKey(job), rec.Superstep, appendRecord(nil, rec)); err != nil {
		return fmt.Errorf("checkpoint: committing epoch %d of %s: %v", rec.Epoch, job, err)
	}
	return nil
}

// LoadCommitRecord returns job's current commit record without touching
// the partition blobs it references. ok is false if no epoch was ever
// committed. A resuming AsyncWriter uses this to continue the job's
// epoch numbering instead of restarting at 1 and reclaiming blobs the
// committed record still references.
func LoadCommitRecord(s Store, job string) (CommitRecord, bool, error) {
	var rec CommitRecord
	raw, _, ok, err := s.Load(commitKey(job))
	if err != nil {
		return rec, false, fmt.Errorf("checkpoint: loading commit record of %s: %v", job, err)
	}
	if !ok {
		return rec, false, nil
	}
	if rec, err = decodeRecord(raw); err != nil {
		return rec, false, fmt.Errorf("checkpoint: decoding commit record of %s: %w", job, err)
	}
	return rec, true, nil
}

// LoadCommitted returns job's current committed checkpoint: the commit
// record and one ready-to-restore blob per slot. ok is false if no
// epoch was ever committed. A referenced blob that is missing or torn
// is an error — never a partial result.
func LoadCommitted(s Store, job string) (CommitRecord, map[int][]byte, bool, error) {
	rec, ok, err := LoadCommitRecord(s, job)
	if err != nil || !ok {
		return rec, nil, ok, err
	}
	blobs := make(map[int][]byte, len(rec.Parts))
	for part, epoch := range rec.Parts {
		data, _, ok, err := s.Load(epochPartKey(job, epoch, part))
		if err != nil {
			return rec, nil, false, fmt.Errorf("checkpoint: loading %s epoch %d partition %d: %v", job, epoch, part, err)
		}
		if !ok {
			return rec, nil, false, fmt.Errorf("checkpoint: %s commit %d references missing blob (epoch %d, partition %d)", job, rec.Epoch, epoch, part)
		}
		blobs[part] = data
	}
	return rec, blobs, true, nil
}

// DiscardEpochParts removes the listed partition blobs of an
// uncommitted or superseded epoch, if the store supports deletion.
// Best-effort garbage collection: failures are ignored, since an
// orphaned blob is unreachable anyway (no commit record references it).
func DiscardEpochParts(s Store, job string, epoch uint64, parts []int) {
	del, ok := s.(Deleter)
	if !ok {
		return
	}
	for _, p := range parts {
		del.Delete(epochPartKey(job, epoch, p))
	}
}
