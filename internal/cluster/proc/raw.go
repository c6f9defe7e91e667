package proc

// raw.go is the codec of the hot-path payloads — the only one they
// have: per-message encoders and decoders composing the column segments
// of internal/colbytes under the frame format of
// internal/cluster/proc/wire. What the payloads carry is already flat
// (the engine's ColBatch views, DenseStore partition views, CSR
// arrays), so a section is a count header followed by the bytes or
// columns as they are. Decoders copy each section into one arena — O(1)
// allocations per frame, nothing aliasing the (pooled) receive buffer,
// every count checked against the bytes actually remaining before
// anything is allocated. A superstep's exchange columns go into an arena
// the caller recycles, every other section into an exactly-sized one.

import (
	"encoding/binary"
	"fmt"

	"optiflow/internal/cluster/proc/wire"
	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// rawKindOf maps a message to its raw payload kind. Messages without a
// kind only travel as gob (control frames).
func rawKindOf(m any) (byte, bool) {
	switch m.(type) {
	case StepReq:
		return wire.KStepReq, true
	case StepResp:
		return wire.KStepResp, true
	case FetchReq:
		return wire.KFetchReq, true
	case FetchResp:
		return wire.KFetchResp, true
	case RestoreReq:
		return wire.KRestoreReq, true
	case LoadReq:
		return wire.KLoadReq, true
	case JobSnapshot:
		return wire.KSnapshot, true
	case CompensateReq:
		return wire.KCompReq, true
	case CompensateResp:
		return wire.KCompResp, true
	}
	return 0, false
}

// appendRawPayload appends the complete raw payload (codec tag, raw
// header, body) for a message of the given kind.
func appendRawPayload(dst []byte, kind byte, id uint64, m any) []byte {
	dst = append(dst, wire.CodecRaw, wire.Version, kind)
	dst = colbytes.AppendU64(dst, id)
	switch r := m.(type) {
	case StepReq:
		dst = appendOwed(dst, r.Commit)
		dst = colbytes.AppendU32(dst, uint32(r.Superstep))
		dst = colbytes.AppendBool(dst, r.Rescatter)
		dst = colbytes.AppendF64(dst, r.Dangling)
		dst = colsSection.append(dst, r.Inbox)
	case StepResp:
		dst = colsSection.append(dst, r.Remote)
		dst = colbytes.AppendF64(dst, r.Dangling)
		dst = colbytes.AppendF64(dst, r.L1)
		dst = colbytes.AppendBool(dst, r.Folded)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendU64(dst, uint64(r.Updates))
	case FetchReq:
		dst = appendOwed(dst, r.Commit)
		dst = appendInts(dst, r.Parts)
	case FetchResp:
		dst = blobSection.append(dst, r.Parts)
	case RestoreReq:
		dst = blobSection.append(dst, r.Parts)
	case LoadReq:
		dst = colbytes.AppendString(dst, r.Job)
		dst = colbytes.AppendString(dst, r.Kind)
		dst = colbytes.AppendU32(dst, uint32(r.NumPartitions))
		dst = colbytes.AppendF64(dst, r.Damping)
		dst = colbytes.AppendU32(dst, uint32(len(r.IDs)))
		for _, v := range r.IDs {
			dst = colbytes.AppendU64(dst, uint64(v))
		}
		dst = appendInts(dst, r.Hosted)
		dst = appendInts(dst, r.Fresh)
		dst = colbytes.AppendI32s(dst, r.Offsets)
		dst = colbytes.AppendI32s(dst, r.Targets)
		dst = colbytes.AppendF64s(dst, r.Weights)
	case JobSnapshot:
		dst = colbytes.AppendString(dst, r.Kind)
		dst = blobSection.append(dst, r.Parts)
	case CompensateReq:
		dst = appendOwed(dst, r.Commit)
		dst = appendInts(appendInts(dst, r.Lost), r.Fill)
		dst = colbytes.AppendF64(dst, r.Surviving)
	case CompensateResp:
		dst = colsSection.append(dst, r.Remote)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendF64(colbytes.AppendF64(dst, r.Dangling), r.Surviving)
	}
	return dst
}

// decodeRawPayload decodes a raw payload (the frame payload minus the
// leading codec tag): version, kind, idempotence token, body. The
// exchange columns of a StepReq or StepResp are decoded into arena (see
// recycle). A body that does not decode is malformed; its error also
// wraps the colbytes cause.
func decodeRawPayload(p []byte, arena *[]byte) (uint64, any, error) {
	r := colbytes.NewReader(p)
	ver := r.U8()
	kind := r.U8()
	id := r.U64()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: raw frame header: %w", err)
	}
	if ver != wire.Version {
		return 0, nil, &wire.VersionError{Got: ver, Want: wire.Version}
	}
	var m any
	switch kind {
	case wire.KStepReq:
		v := StepReq{
			Commit:    readOwed(r),
			Superstep: int(r.U32()),
			Rescatter: r.Bool(),
			Dangling:  r.F64(),
		}
		v.Inbox = colsSection.read(r, arena)
		m = v
	case wire.KStepResp:
		v := StepResp{Remote: colsSection.read(r, arena)}
		v.Dangling = r.F64()
		v.L1 = r.F64()
		v.Folded = r.Bool()
		v.Messages = int64(r.U64())
		v.Updates = int64(r.U64())
		m = v
	case wire.KFetchReq:
		m = FetchReq{Commit: readOwed(r), Parts: readInts(r)}
	case wire.KFetchResp:
		m = FetchResp{Parts: blobSection.read(r, nil)}
	case wire.KRestoreReq:
		m = RestoreReq{Parts: blobSection.read(r, nil)}
	case wire.KLoadReq:
		m = readLoadReq(r)
	case wire.KSnapshot:
		m = JobSnapshot{Kind: r.String(), Parts: blobSection.read(r, nil)}
	case wire.KCompReq:
		m = CompensateReq{Commit: readOwed(r), Lost: readInts(r), Fill: readInts(r), Surviving: r.F64()}
	case wire.KCompResp:
		m = CompensateResp{Remote: colsSection.read(r, nil), Messages: int64(r.U64()), Dangling: r.F64(), Surviving: r.F64()}
	default:
		return 0, nil, fmt.Errorf("proc: raw frame with unknown kind %d: %w", kind, wire.ErrMalformed)
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: decoding raw frame of kind %d: %w: %w", kind, wire.ErrMalformed, err)
	}
	return id, m, nil
}

// A byte section is how opaque views travel: a u32 entry count, one
// (tag a, tag b, byte length) u32 triple per entry, then every entry's
// bytes concatenated. A sectionCodec maps one entry type onto that
// form.
type sectionCodec[E any] struct {
	split func(E) (a, b int, data []byte)
	join  func(a, b int, data []byte) E
}

// Exchange columns are tagged (source, destination) partition,
// partition views (partition, 0).
var (
	colsSection = sectionCodec[exec.HostedCols]{
		split: func(c exec.HostedCols) (int, int, []byte) { return c.Src, c.Dst, c.Cols },
		join:  func(a, b int, d []byte) exec.HostedCols { return exec.HostedCols{Src: a, Dst: b, Cols: d} },
	}
	blobSection = sectionCodec[PartBlob]{
		split: func(b PartBlob) (int, int, []byte) { return b.Part, 0, b.Data },
		join:  func(a, _ int, d []byte) PartBlob { return PartBlob{Part: a, Data: d} },
	}
)

func (c sectionCodec[E]) append(dst []byte, es []E) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(es)))
	for _, e := range es {
		a, b, data := c.split(e)
		dst = colbytes.AppendU32(colbytes.AppendU32(colbytes.AppendU32(dst, uint32(a)), uint32(b)), uint32(len(data)))
	}
	for _, e := range es {
		_, _, data := c.split(e)
		dst = append(dst, data...)
	}
	return dst
}

// read validates the declared lengths against the bytes actually
// remaining before copying them into one arena, sub-sliced per entry
// and capped at its length (an empty entry decodes as nil).
func (c sectionCodec[E]) read(r *colbytes.Reader, into *[]byte) []E {
	n := int(r.U32())
	if r.Err() != nil || n == 0 {
		return nil
	}
	if n*12 > r.Remaining() {
		r.Fail("byte section header")
		return nil
	}
	hdr := r.Raw(12*n, "byte section header")
	total := 0
	for i := 0; i < n; i++ {
		total += int(binary.LittleEndian.Uint32(hdr[12*i+8:]))
		if total > r.Remaining() {
			r.Fail("byte section lengths")
			return nil
		}
	}
	arena := append(recycle(into, total), r.Raw(total, "byte section data")...)
	out := make([]E, n)
	for i, off := 0, 0; i < n; i++ {
		e := hdr[12*i:]
		var data []byte
		if l := int(binary.LittleEndian.Uint32(e[8:])); l > 0 {
			data, off = arena[off:off+l:off+l], off+l
		}
		out[i] = c.join(int(binary.LittleEndian.Uint32(e)), int(binary.LittleEndian.Uint32(e[4:])), data)
	}
	return out
}

// poisonRecycled, set only by tests, fills a recycled arena with 0xA5
// before it is reused, so a view kept past its arena's lifetime reads
// garbage rather than plausible columns. It fills in place: the test
// binary's workers poison every arena, and their allocation counters
// must still show what a superstep allocates.
var poisonRecycled bool

// recycle empties *arena for n bytes of section data and returns it: the
// arena is regrown only when it is too small, so a decoder that owns one
// allocates nothing once it has seen its largest section. Everything
// decoded into the arena before is overwritten. A nil arena is a fresh,
// exactly-sized one.
func recycle(arena *[]byte, n int) []byte {
	if arena == nil {
		return make([]byte, 0, n)
	}
	if cap(*arena) < n {
		*arena = make([]byte, 0, n)
	} else if poisonRecycled {
		a := (*arena)[:cap(*arena)]
		for i := range a {
			a[i] = 0xA5
		}
	}
	return (*arena)[:0]
}

// readLoadReq decodes an adjacency load. The ID and CSR columns are the
// slices the worker's graph retains for the life of the job; each
// column's count is checked against the remaining bytes before it is
// allocated.
func readLoadReq(r *colbytes.Reader) LoadReq {
	v := LoadReq{
		Job:           r.String(),
		Kind:          r.String(),
		NumPartitions: int(r.U32()),
		Damping:       r.F64(),
	}
	nids := int(r.U32())
	if b := r.Raw(8*nids, "vertex ID column"); len(b) > 0 {
		v.IDs = make([]graph.VertexID, nids)
		for i := range v.IDs {
			v.IDs[i] = graph.VertexID(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
	v.Hosted, v.Fresh = readInts(r), readInts(r)
	v.Offsets, v.Targets, v.Weights = r.I32s(nil), r.I32s(nil), r.F64s(nil)
	return v
}

// appendOwed writes a carried commit: its set flag, then its superstep.
func appendOwed(dst []byte, o Owed) []byte {
	return colbytes.AppendU32(colbytes.AppendBool(dst, o.Set), uint32(o.Superstep))
}

func readOwed(r *colbytes.Reader) Owed {
	return Owed{Set: r.Bool(), Superstep: int(r.U32())}
}

// appendInts writes a partition-ID list as a u32 column.
func appendInts(dst []byte, ps []int) []byte {
	dst = colbytes.AppendU32(dst, uint32(len(ps)))
	for _, p := range ps {
		dst = colbytes.AppendU32(dst, uint32(p))
	}
	return dst
}

func readInts(r *colbytes.Reader) (ps []int) {
	for _, p := range r.U32s(nil) {
		ps = append(ps, int(p))
	}
	return ps
}

// appendSnapshot appends a JobSnapshot as a checkpoint blob: the raw
// payload of a frame — codec tag, format version, kind — with no length
// prefix and no token.
func appendSnapshot(dst []byte, s JobSnapshot) []byte {
	return appendRawPayload(dst, wire.KSnapshot, 0, s)
}

// decodeSnapshot decodes a checkpoint blob. Anything but a raw payload
// of the snapshot kind (a gob stream, say) is a *SnapshotError, another
// format version a *wire.VersionError.
func decodeSnapshot(b []byte) (JobSnapshot, error) {
	if len(b) == 0 || b[0] != wire.CodecRaw {
		return JobSnapshot{}, &SnapshotError{"not a job snapshot blob"}
	}
	_, m, err := decodeRawPayload(b[1:], nil)
	snap, ok := m.(JobSnapshot)
	if err == nil && !ok {
		err = &SnapshotError{fmt.Sprintf("blob holds a %T", m)}
	}
	return snap, err
}
