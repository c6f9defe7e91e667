package proc

// raw.go is the wire codec — the only one a proc message has: one kind
// byte per message type, and per-kind encoders and decoders composing
// the fixed-width fields and column segments of internal/colbytes under
// the frame header of wire.go. What the hot-path payloads carry is
// already flat (the engine's ColBatch views, DenseStore partition
// views, CSR arrays), so a section is a count header followed by the
// bytes or columns as they are; a control message is a few fields, and
// one with no fields is its kind byte alone. Decoders copy each section
// into one arena — O(1) allocations per frame, nothing aliasing the
// (pooled) receive buffer, every count checked against the bytes
// actually remaining before anything is allocated. A superstep's
// exchange columns go into an arena the caller recycles, every other
// section into an exactly-sized one.

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"

	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// Payload kinds: the byte after the version that names a frame's
// message type.
const (
	kStepReq byte = iota + 1
	kStepResp
	kFetchReq
	kFetchResp
	kRestoreReq
	kLoadReq
	kSnapshot
	kCompReq
	kCompResp
	kHello
	kHelloOK
	kHeartbeat
	kOKResp
	kErrResp
	kPingReq
	kCommitReq
	kAbortReq
	kClearReq
	kShutdownReq
	kStatsReq
	kWorkerStats
)

// appendPayload appends the complete payload (version, kind,
// idempotence token, body) for m. A type with no kind is an error, with
// dst as it was.
func appendPayload(dst []byte, id uint64, m any) ([]byte, error) {
	start := len(dst)
	dst = colbytes.AppendU64(append(dst, wireVersion, 0), id)
	var kind byte
	switch r := m.(type) {
	case StepReq:
		kind, dst = kStepReq, appendStepReq(dst, &r)
	case *StepReq:
		kind, dst = kStepReq, appendStepReq(dst, r)
	case StepResp:
		kind = kStepResp
		dst = colsSection.append(dst, r.Remote)
		dst = colbytes.AppendF64(dst, r.Dangling)
		dst = colbytes.AppendF64(dst, r.L1)
		dst = colbytes.AppendBool(dst, r.Folded)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendU64(dst, uint64(r.Updates))
	case FetchReq:
		kind, dst = kFetchReq, appendFetchReq(dst, &r)
	case *FetchReq:
		kind, dst = kFetchReq, appendFetchReq(dst, r)
	case FetchResp:
		kind, dst = kFetchResp, blobSection.append(dst, r.Parts)
	case *FetchResp:
		kind, dst = kFetchResp, blobSection.append(dst, r.Parts)
	case RestoreReq:
		kind = kRestoreReq
		dst = blobSection.append(dst, r.Parts)
	case LoadReq:
		kind = kLoadReq
		// A load is a connection's largest frame, and often its first:
		// reserve its columns once rather than regrow through them.
		dst = slices.Grow(dst, 64+len(r.Job)+len(r.Kind)+8*(len(r.IDs)+len(r.Weights))+
			4*(len(r.Hosted)+len(r.Fresh)+len(r.Offsets)+len(r.Targets)))
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
	case *JobSnapshot:
		kind = kSnapshot
		dst = blobSection.append(colbytes.AppendString(dst, r.Kind), r.Parts)
	case CompensateReq:
		kind = kCompReq
		dst = appendOwed(dst, r.Commit)
		dst = appendInts(appendInts(dst, r.Lost), r.Fill)
		dst = colbytes.AppendF64(dst, r.Surviving)
	case CompensateResp:
		kind = kCompResp
		dst = colsSection.append(dst, r.Remote)
		dst = colbytes.AppendU64(dst, uint64(r.Messages))
		dst = colbytes.AppendF64(colbytes.AppendF64(dst, r.Dangling), r.Surviving)
	case Hello:
		kind = kHello
		dst = colbytes.AppendU32(dst, uint32(r.Worker))
		dst = colbytes.AppendString(colbytes.AppendString(dst, r.Token), r.Conn)
	case HelloOK:
		kind = kHelloOK
	case Heartbeat:
		kind = kHeartbeat
		dst = colbytes.AppendU64(colbytes.AppendU32(dst, uint32(r.Worker)), r.Seq)
	case OKResp:
		kind = kOKResp
	case ErrResp:
		kind = kErrResp
		dst = colbytes.AppendString(dst, r.Msg)
	case PingReq:
		kind = kPingReq
	case CommitReq:
		kind = kCommitReq
		dst = colbytes.AppendU32(dst, uint32(r.Superstep))
	case AbortReq:
		kind = kAbortReq
	case ClearReq:
		kind = kClearReq
		dst = appendInts(dst, r.Parts)
	case ShutdownReq:
		kind = kShutdownReq
	case StatsReq:
		kind = kStatsReq
	case WorkerStats:
		kind = kWorkerStats
		for _, v := range [...]uint64{r.Handled, r.Replayed, r.CommitsCarried, r.CommitsExplicit,
			r.Rescatters, r.AllocBytes, r.Mallocs, r.GCCycles} {
			dst = colbytes.AppendU64(dst, v)
		}
	default:
		// m's type alone goes into the error, so m does not escape: a
		// request or snapshot sent by pointer stays where it is.
		return dst[:start], fmt.Errorf("proc: %v has no wire kind: %w", reflect.TypeOf(m), ErrMalformed)
	}
	dst[start+1] = kind
	return dst, nil
}

// appendStepReq appends a StepReq's body. A superstep sends one by
// pointer, so the request is never boxed; a checkpoint's FetchReq, the
// worker's FetchResp and the checkpoint blob's JobSnapshot travel by
// pointer too.
func appendStepReq(dst []byte, r *StepReq) []byte {
	dst = appendOwed(dst, r.Commit)
	dst = colbytes.AppendU32(dst, uint32(r.Superstep))
	dst = colbytes.AppendBool(dst, r.Rescatter)
	dst = colbytes.AppendF64(dst, r.Dangling)
	return colsSection.append(dst, r.Inbox)
}

// appendFetchReq appends a FetchReq's body.
func appendFetchReq(dst []byte, r *FetchReq) []byte {
	return appendInts(appendOwed(dst, r.Commit), r.Parts)
}

// decodePayload decodes a frame payload: version, kind, idempotence
// token, body. The version is checked before anything else is read, so
// a foreign blob is a *VersionError. The exchange columns of a StepReq
// or StepResp are decoded into arena (see recycle). A body that does
// not decode, or leaves bytes over, is malformed; its error also wraps
// the colbytes cause.
func decodePayload(p []byte, arena *[]byte) (uint64, any, error) {
	return decodeInto(p, arena, nil)
}

// decodeInto is decodePayload decoding a StepResp or a FetchResp, when
// rl is set, into the worker process's relay: a StepResp into rl.resp,
// its columns into the arena generation not holding committed ones, a
// FetchResp into rl.fetch, its views into rl.fetched. Either comes back
// as a pointer into rl, so the coordinator neither boxes an answer nor
// allocates its headers or bytes once the relay has grown.
func decodeInto(p []byte, arena *[]byte, rl *relay) (uint64, any, error) {
	r := colbytes.NewReader(p)
	if ver := r.U8(); r.Err() == nil && ver != wireVersion {
		return 0, nil, &VersionError{Got: ver, Want: wireVersion}
	}
	kind := r.U8()
	id := r.U64()
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: frame header: %w", err)
	}
	var m any
	switch kind {
	case kStepReq:
		v := StepReq{
			Commit:    readOwed(r),
			Superstep: int(r.U32()),
			Rescatter: r.Bool(),
			Dangling:  r.F64(),
		}
		v.Inbox = colsSection.read(r, arena, nil)
		m = v
	case kStepResp:
		if rl != nil {
			readStepResp(r, &rl.arenas[1-rl.gen], &rl.resp)
			m = &rl.resp
		} else {
			var v StepResp
			readStepResp(r, arena, &v)
			m = v
		}
	case kFetchReq:
		m = FetchReq{Commit: readOwed(r), Parts: readInts(r)}
	case kFetchResp:
		if rl != nil {
			rl.fetch.Parts = blobSection.read(r, &rl.fetched, &rl.fetch.Parts)
			m = &rl.fetch
		} else {
			m = FetchResp{Parts: blobSection.read(r, nil, nil)}
		}
	case kRestoreReq:
		m = RestoreReq{Parts: blobSection.read(r, nil, nil)}
	case kLoadReq:
		m = readLoadReq(r)
	case kSnapshot:
		m = JobSnapshot{Kind: r.String(), Parts: blobSection.read(r, nil, nil)}
	case kCompReq:
		m = CompensateReq{Commit: readOwed(r), Lost: readInts(r), Fill: readInts(r), Surviving: r.F64()}
	case kCompResp:
		m = CompensateResp{Remote: colsSection.read(r, nil, nil), Messages: int64(r.U64()), Dangling: r.F64(), Surviving: r.F64()}
	case kHello:
		m = Hello{Worker: int(r.U32()), Token: r.String(), Conn: r.String()}
	case kHelloOK:
		m = HelloOK{}
	case kHeartbeat:
		m = Heartbeat{Worker: int(r.U32()), Seq: r.U64()}
	case kOKResp:
		m = OKResp{}
	case kErrResp:
		m = ErrResp{Msg: r.String()}
	case kPingReq:
		m = PingReq{}
	case kCommitReq:
		m = CommitReq{Superstep: int(r.U32())}
	case kAbortReq:
		m = AbortReq{}
	case kClearReq:
		m = ClearReq{Parts: readInts(r)}
	case kShutdownReq:
		m = ShutdownReq{}
	case kStatsReq:
		m = StatsReq{}
	case kWorkerStats:
		m = WorkerStats{Handled: r.U64(), Replayed: r.U64(), CommitsCarried: r.U64(), CommitsExplicit: r.U64(),
			Rescatters: r.U64(), AllocBytes: r.U64(), Mallocs: r.U64(), GCCycles: r.U64()}
	default:
		return 0, nil, fmt.Errorf("proc: frame with unknown kind %d: %w", kind, ErrMalformed)
	}
	if err := r.Err(); err != nil {
		return 0, nil, fmt.Errorf("proc: decoding frame of kind %d: %w: %w", kind, ErrMalformed, err)
	}
	if r.Remaining() != 0 {
		return 0, nil, fmt.Errorf("proc: %d trailing bytes in a frame of kind %d: %w", r.Remaining(), kind, ErrMalformed)
	}
	return id, m, nil
}

// readStepResp decodes a StepResp's body into *v, its exchange columns
// into arena and their headers into v.Remote's memory.
func readStepResp(r *colbytes.Reader, arena *[]byte, v *StepResp) {
	v.Remote = colsSection.read(r, arena, &v.Remote)
	v.Dangling = r.F64()
	v.L1 = r.F64()
	v.Folded = r.Bool()
	v.Messages = int64(r.U64())
	v.Updates = int64(r.U64())
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

// append reserves the whole section before writing it, so a section
// going into an empty buffer — a checkpoint's views, say — is one
// allocation.
func (c sectionCodec[E]) append(dst []byte, es []E) []byte {
	n := 4 + 12*len(es)
	for _, e := range es {
		_, _, data := c.split(e)
		n += len(data)
	}
	dst = colbytes.AppendU32(slices.Grow(dst, n), uint32(len(es)))
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
// and capped at its length (an empty entry decodes as nil). The entries
// go into *reuse's memory when it has room for them.
func (c sectionCodec[E]) read(r *colbytes.Reader, into *[]byte, reuse *[]E) []E {
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
	var out []E
	if reuse != nil && cap(*reuse) >= n {
		out = (*reuse)[:n]
	} else {
		out = make([]E, n)
	}
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

// appendSnapshot appends a JobSnapshot as a checkpoint blob: the
// payload of a frame of the snapshot kind, with no length prefix and a
// zero token.
func appendSnapshot(dst []byte, s JobSnapshot) []byte {
	dst, _ = appendPayload(dst, 0, &s)
	return dst
}

// decodeSnapshot decodes a checkpoint blob. A blob of another format
// version (a gob stream, say) is a *VersionError, a payload of another
// kind a *SnapshotError.
func decodeSnapshot(b []byte) (JobSnapshot, error) {
	_, m, err := decodePayload(b, nil)
	snap, ok := m.(JobSnapshot)
	if err == nil && !ok {
		err = &SnapshotError{fmt.Sprintf("blob holds a %T", m)}
	}
	return snap, err
}
