package proc

// rawgolden_test.go pins the wire format byte for byte: one golden
// fixture per frame kind (the snapshot kind's is the checkpoint blob),
// committed as hex under testdata/, and feeds each fixture damaged —
// truncated at every offset, every byte inverted in turn — to its
// decoder. The fixtures catch silent
// format drift — an encoder change that still round-trips locally but
// breaks decoding against processes running the committed format fails
// here — and the fixtures are additionally fed to a fresh subprocess
// decoder, proving the committed bytes (not just today's encoder
// output) stay decodable across a process boundary. Regenerate with
// OPTIFLOW_UPDATE_GOLDEN=1 go test ./internal/cluster/proc -run RawGolden
// after a deliberate, version-bumped format change.

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	oexec "os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"optiflow/internal/cluster/proc/netfault"
	"optiflow/internal/colbytes"
	"optiflow/internal/exec"
	"optiflow/internal/graph"
)

// goldenCols builds one batch's column view the way the engine does.
func goldenCols(dst []int32, val []uint64) []byte {
	b := exec.ColBatch[uint64]{Dst: dst, Val: val}
	return b.AppendColumns(nil)
}

// goldenRawCases returns one populated sample per frame kind but the
// snapshot's (goldenSnapshot), in a fixed order. Values exercise
// multi-entry sections, empty entries and non-trivial floats.
func goldenRawCases() []struct {
	name string
	m    any
} {
	view := []byte{2, 0, 0, 0, 1, 0, 9, 0, 0, 0, 0, 0, 0, 0}
	return []struct {
		name string
		m    any
	}{
		{"stepreq", StepReq{
			Commit:    Owed{Superstep: 6, Set: true},
			Superstep: 7, Rescatter: true, Dangling: 0.375,
			Inbox: []exec.HostedCols{
				{Src: 1, Dst: 0, Cols: goldenCols([]int32{3, 4}, []uint64{1, 2})},
				{Src: 3, Dst: 2, Cols: goldenCols([]int32{9}, []uint64{7})},
			},
		}},
		{"stepresp", StepResp{
			Remote:   []exec.HostedCols{{Src: 0, Dst: 1, Cols: goldenCols([]int32{5}, []uint64{5})}},
			Dangling: 0.0625, L1: 2.5, Folded: true, Messages: 42, Updates: 7,
		}},
		{"fetchreq", FetchReq{Commit: Owed{Superstep: 4, Set: true}, Parts: []int{0, 2, 3}}},
		{"fetchresp", FetchResp{Parts: []PartBlob{{Part: 0, Data: view}, {Part: 3}}}},
		{"restorereq", RestoreReq{Parts: []PartBlob{{Part: 2, Data: view}}}},
		{"loadreq", LoadReq{
			Job: "golden", Kind: KindPageRank, NumPartitions: 4, Damping: 0.85,
			IDs:    []graph.VertexID{1, 2, 3, 5, 8},
			Hosted: []int{1, 2}, Fresh: []int{2},
			Offsets: []int32{0, 2, 2, 3, 3, 3}, Targets: []int32{1, 2, 4}, Weights: []float64{0.5, 1.5, 1},
		}},
		{"compensatereq", CompensateReq{Commit: Owed{Superstep: 5, Set: true}, Lost: []int{1, 3}, Fill: []int{3}, Surviving: 0.4375}},
		{"compensateresp", CompensateResp{
			Remote:   []exec.HostedCols{{Src: 3, Dst: 0, Cols: goldenCols([]int32{2, 6}, []uint64{3, 3})}, {Src: 3, Dst: 2}},
			Messages: 9, Dangling: 0.03125, Surviving: 0.5625,
		}},
		{"hello", Hello{Worker: 3, Token: "tok", Conn: ConnCtrl}},
		{"hellook", HelloOK{}},
		{"heartbeat", Heartbeat{Worker: 3, Seq: 41}},
		{"okresp", OKResp{}},
		{"errresp", ErrResp{Msg: "worker 3: boom"}},
		{"pingreq", PingReq{}},
		{"commitreq", CommitReq{Superstep: 5}},
		{"abortreq", AbortReq{}},
		{"clearreq", ClearReq{Parts: []int{3}}},
		{"shutdownreq", ShutdownReq{}},
		{"statsreq", StatsReq{}},
		{"workerstats", WorkerStats{Handled: 17, Replayed: 2, CommitsCarried: 9, CommitsExplicit: 1, Rescatters: 3,
			AllocBytes: 1 << 20, Mallocs: 4096, GCCycles: 7}},
	}
}

// goldenSnapshot is the snapshot blob fixture's source value.
func goldenSnapshot() JobSnapshot {
	return JobSnapshot{
		Kind:  KindCC,
		Parts: []PartBlob{{Part: 0, Data: []byte{1, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0}}, {Part: 1, Data: []byte{0, 0, 0, 0}}},
	}
}

// checkGolden compares got against the named fixture, rewriting it
// when OPTIFLOW_UPDATE_GOLDEN=1.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".hex")
	if os.Getenv("OPTIFLOW_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (regenerate with OPTIFLOW_UPDATE_GOLDEN=1): %v", path, err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("corrupt golden fixture %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoding drifted from the committed format\n got  %x\n want %x", name, got, want)
	}
}

// decodeInChild pipes the frame bytes into a freshly started
// subprocess decoder (this test binary re-executed with envDecodeCheck
// set) and returns the child's per-frame %#v digests.
func decodeInChild(t *testing.T, frames []byte) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := oexec.Command(exe)
	cmd.Env = append(os.Environ(), envDecodeCheck+"=1")
	cmd.Stdin = bytes.NewReader(frames)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("decode-check child: %v (stderr: %s)", err, stderr.String())
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var got []string
	for sc.Scan() {
		got = append(got, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading child output: %v", err)
	}
	return got
}

// TestRawGoldenFrames pins every frame kind's bytes — each kind has
// exactly one fixture, the snapshot kind's being the checkpoint blob —
// and proves the committed bytes decode in a fresh subprocess.
func TestRawGoldenFrames(t *testing.T) {
	var all bytes.Buffer
	kinds := map[byte]string{}
	cases := goldenRawCases()
	for _, c := range cases {
		b, err := encodeFrame(77, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		checkGolden(t, "raw_"+c.name, b)
		if prev, dup := kinds[b[5]]; dup {
			t.Errorf("%s and %s share kind %d", prev, c.name, b[5])
		}
		kinds[b[5]] = c.name
		all.Write(b)
	}
	snap := appendSnapshot(nil, goldenSnapshot())
	kinds[snap[1]] = "snapshot"
	for k := byte(1); k <= kWorkerStats; k++ {
		if _, ok := kinds[k]; !ok {
			t.Errorf("kind %d has no golden fixture", k)
		}
	}
	hdr := make([]byte, netfault.HeaderLen)
	netfault.PutHeader(hdr, len(snap))
	all.Write(append(hdr, snap...))
	cases = append(cases, struct {
		name string
		m    any
	}{"snapshot", goldenSnapshot()})
	got := decodeInChild(t, all.Bytes())
	if len(got) != len(cases) {
		t.Fatalf("child decoded %d frames, want %d", len(got), len(cases))
	}
	for i, c := range cases {
		if want := fmt.Sprintf("%#v", c.m); got[i] != want {
			t.Errorf("%s mutated across the process boundary:\n sent %s\n got  %s", c.name, want, got[i])
		}
	}
}

// TestRawGoldenSnapshot pins the checkpoint blob format and its round
// trip, and that a blob of another format (a gob stream, say) is
// rejected by type instead of misparsed.
func TestRawGoldenSnapshot(t *testing.T) {
	snap := goldenSnapshot()
	b := appendSnapshot(nil, snap)
	checkGolden(t, "raw_snapshot", b)
	got, err := decodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", snap) {
		t.Errorf("snapshot mutated:\n sent %#v\n got  %#v", snap, got)
	}
	var ve *VersionError
	if _, err := decodeSnapshot([]byte("\x0c\xff\x81\x03\x01\x01")); !errors.As(err, &ve) {
		t.Errorf("gob-looking blob: err = %v, want *VersionError", err)
	}
}

// typedWireError reports whether err is one of the typed rejections a
// decoder may answer hostile bytes with.
func typedWireError(err error) bool {
	var ve *VersionError
	var se *SizeError
	var ne *SnapshotError
	return errors.Is(err, colbytes.ErrTruncated) || errors.Is(err, ErrMalformed) ||
		errors.Is(err, io.ErrUnexpectedEOF) || errors.As(err, &ve) || errors.As(err, &se) || errors.As(err, &ne)
}

// hostile runs decode over every strict prefix of good (from shortest
// bytes up) and over good
// with each single byte inverted, demanding that a prefix always fails,
// that every failure is typed, that nothing panics, and that no decode
// allocates more than allocBound of the input — a count field blown up
// to 2^32-ish by the inversion must be checked against the bytes
// actually there before anything is sized by it.
func hostile(t *testing.T, name string, good []byte, shortest int, decode func([]byte) error) {
	t.Helper()
	try := func(what string, b []byte, mustFail bool) {
		t.Helper()
		var err error
		limit := allocBound(len(b))
		grew := allocBytes(limit, func() {
			defer func() {
				if rec := recover(); rec != nil {
					err = fmt.Errorf("panic: %v", rec)
					t.Errorf("%s %s: decoder panicked: %v", name, what, rec)
				}
			}()
			err = decode(b)
		})
		if grew > limit {
			t.Errorf("%s %s: decode allocated %d bytes for a %d-byte input", name, what, grew, len(b))
		}
		if mustFail && err == nil {
			t.Errorf("%s %s: decoded without error", name, what)
		}
		if err != nil && !typedWireError(err) {
			t.Errorf("%s %s: untyped error %v", name, what, err)
		}
	}
	for n := shortest; n < len(good); n++ {
		try(fmt.Sprintf("truncated to %d bytes", n), good[:n], true)
	}
	for i := range good {
		b := bytes.Clone(good)
		b[i] ^= 0xff
		try(fmt.Sprintf("with byte %d inverted", i), b, false)
	}
}

// TestRawHostileFrames feeds every golden frame's payload, damaged, to
// the frame decoder — with the length prefix rewritten to match, so the
// damage reaches the payload decoders rather than the frame reader.
func TestRawHostileFrames(t *testing.T) {
	for _, c := range goldenRawCases() {
		frame, err := encodeFrame(77, c.m)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// The frame reader refuses a zero-length frame before any decoder.
		hostile(t, c.name, frame[netfault.HeaderLen:], 1, func(payload []byte) error {
			b := make([]byte, netfault.HeaderLen, netfault.HeaderLen+len(payload))
			netfault.PutHeader(b, len(payload))
			_, _, err := readFrame(bytes.NewReader(append(b, payload...)), nil)
			return err
		})
	}
	t.Run("commit of a superstep not held", hostileCommits)
	t.Run("compensation of what was not lost", hostileCompensations)
}

// hostileCompensations feeds a worker host that holds committed columns
// well-formed CompensateReqs for partitions it cannot have just been
// given: one it does not host, one outside the job, one whose own
// columns it still holds. Each must be refused by type with nothing
// touched — state, held columns and the attempt in flight end up those
// of a host that never saw them — while the request the driver would
// send, for the partition hosted elsewhere, is served.
func hostileCompensations(t *testing.T) {
	g := ccTestGraph()
	d := g.Dense()
	load := LoadReq{Job: "hostile", Kind: KindPageRank, NumPartitions: 4, IDs: d.IDs(), Hosted: []int{0, 2}, Fresh: []int{0, 2}}
	load.Offsets, load.Targets, load.Weights = d.Restrict(d.Partitioning(4), load.Hosted)
	stepped := func() *workerHost {
		h := &workerHost{worker: 3, lastStep: -1}
		for id, req := range []any{load, StepReq{Superstep: 0, Rescatter: true}, StepReq{Commit: Owed{Set: true}, Superstep: 1}} {
			if e, bad := h.dispatch(uint64(id+1), req).(ErrResp); bad {
				t.Fatalf("%T: %s", req, e.Msg)
			}
		}
		return h
	}
	h, twin := stepped(), stepped()
	id := uint64(50)
	for what, req := range map[string]CompensateReq{
		"fill of a partition not hosted":  {Lost: []int{1}, Fill: []int{1}},
		"lost partition outside the job":  {Lost: []int{1, 1 << 30}},
		"negative lost partition":         {Lost: []int{-1}},
		"fill of a partition still held":  {Lost: []int{2}, Fill: []int{2}, Surviving: 0.5},
		"fill of every partition it held": {Lost: []int{0, 2}, Fill: []int{0, 2}},
	} {
		id++ // a token seen before is answered from the cache
		if resp, refused := h.dispatch(id, req).(ErrResp); !refused {
			t.Errorf("%s: answered %#v, want ErrResp", what, resp)
		}
	}
	for _, host := range []*workerHost{h, twin} {
		if e, bad := host.dispatch(70, CommitReq{Superstep: 1}).(ErrResp); bad {
			t.Fatalf("committing the attempt held: %s", e.Msg)
		}
	}
	if h.stats.CommitsExplicit != 1 {
		t.Errorf("%d explicit commits, want 1: a refused compensation dropped the attempt held", h.stats.CommitsExplicit)
	}
	next := StepReq{Superstep: 2}
	got, want := h.dispatch(71, next), twin.dispatch(71, next)
	if _, bad := got.(ErrResp); bad || !reflect.DeepEqual(got, want) {
		t.Errorf("the step after the refused compensations answered %#v, an undisturbed host %#v", got, want)
	}
	resp, served := h.dispatch(72, CompensateReq{Lost: []int{1, 3}}).(CompensateResp)
	if !served || len(resp.Remote) != 0 || resp.Messages != 0 || !(resp.Surviving > 0 && resp.Surviving < 1) {
		t.Errorf("a survivor's PageRank compensation answered %#v (served %v), want only its partitions' mass", resp, served)
	}
}

// hostileCommits feeds a worker host that holds superstep 1's attempt
// well-formed requests whose Commit names superstep 9, over every road a
// commit can arrive by. Each must be refused by type with an ErrResp,
// and none may commit, abort or replace the attempt held: it then
// commits once, to the state of a host that never saw the hostile
// requests (and not to the state before the attempt, which is what a
// fetch that ran would have left).
func hostileCommits(t *testing.T) {
	g := ccTestGraph()
	d := g.Dense()
	load := LoadReq{Job: "hostile", Kind: KindCC, NumPartitions: 2, IDs: d.IDs(), Hosted: []int{0, 1}, Fresh: []int{0, 1}}
	load.Offsets, load.Targets, load.Weights = d.Restrict(d.Partitioning(2), load.Hosted)
	holding := func() *workerHost {
		h := &workerHost{worker: 3, lastStep: -1}
		for id, req := range []any{load, StepReq{Superstep: 0, Rescatter: true}, StepReq{Commit: Owed{Set: true}, Superstep: 1}} {
			if e, bad := h.dispatch(uint64(id+1), req).(ErrResp); bad {
				t.Fatalf("%T: %s", req, e.Msg)
			}
		}
		return h
	}
	h, twin := holding(), holding()
	stale := Owed{Superstep: 9, Set: true}
	for id, req := range []any{
		StepReq{Commit: stale, Superstep: 2},
		FetchReq{Commit: stale, Parts: []int{0}},
		CompensateReq{Commit: stale, Lost: []int{1}},
		CommitReq{Superstep: stale.Superstep},
	} {
		if resp, refused := h.dispatch(uint64(id+10), req).(ErrResp); !refused {
			t.Errorf("%T committing a superstep not held answered %#v, want ErrResp", req, resp)
		}
	}
	for _, host := range []*workerHost{h, twin} {
		if e, bad := host.dispatch(20, CommitReq{Superstep: 1}).(ErrResp); bad {
			t.Fatalf("committing the attempt held: %s", e.Msg)
		}
	}
	if h.stats.CommitsExplicit != 1 || h.stats.CommitsCarried != 1 {
		t.Errorf("commits explicit/carried = %d/%d, want 1/1: a refused request committed or dropped the attempt held",
			h.stats.CommitsExplicit, h.stats.CommitsCarried)
	}
	got, err := h.fetch(FetchReq{Parts: load.Hosted})
	want, werr := twin.fetch(FetchReq{Parts: load.Hosted})
	if err != nil || werr != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("state after the refused commits differs from an undisturbed host's (errs %v, %v)", err, werr)
	}
	if before, _ := holding().fetch(FetchReq{Parts: load.Hosted}); reflect.DeepEqual(before, want) {
		t.Error("superstep 1 changed no state: the comparison above proves nothing")
	}
}

// TestRawHostileSnapshot does the same to the checkpoint blob.
func TestRawHostileSnapshot(t *testing.T) {
	hostile(t, "snapshot", appendSnapshot(nil, goldenSnapshot()), 0, func(b []byte) error {
		_, err := decodeSnapshot(b)
		return err
	})
}

// TestRawVersionMismatch pins the forward-compatibility guard: a frame
// or snapshot blob stamped with a future format version is rejected
// with a typed *VersionError, not misparsed.
func TestRawVersionMismatch(t *testing.T) {
	b, err := encodeFrame(1, FetchReq{Parts: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	b[netfault.HeaderLen]++ // the version byte follows the length prefix
	_, _, err = readFrame(bytes.NewReader(b), nil)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("decode of future-version frame: err = %v, want *VersionError", err)
	}
	if ve.Got != wireVersion+1 || ve.Want != wireVersion {
		t.Errorf("VersionError = %+v, want Got=%d Want=%d", ve, wireVersion+1, wireVersion)
	}

	sb := appendSnapshot(nil, goldenSnapshot())
	sb[0]++ // a blob starts at its version byte
	if _, err := decodeSnapshot(sb); !errors.As(err, &ve) {
		t.Fatalf("decode of future-version snapshot: err = %v, want *VersionError", err)
	}
}
