package proc

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	oexec "os/exec"
	"reflect"
	"testing"

	"optiflow/internal/checkpoint"
	"optiflow/internal/cluster/proc/netfault"
)

// sampleMessages returns one populated instance per gob-carried wire
// type, in wireMessages order. Every field is non-zero where possible
// so the round trip exercises real payloads, not gob's zero-field
// elision. Map-typed fields hold a single entry so the %#v digest is
// stable.
func sampleMessages() []any {
	return []any{
		Hello{Proto: ProtoVersion, Worker: 3, Token: "tok", Conn: ConnCtrl},
		HelloOK{Proto: ProtoVersion},
		Heartbeat{Worker: 3, Seq: 41},
		OKResp{},
		ErrResp{Msg: "worker 3: boom"},
		PingReq{},
		CommitReq{Superstep: 5},
		AbortReq{},
		ClearReq{Parts: []int{3}},
		ShutdownReq{},
		StatsReq{},
		WorkerStats{Handled: 17, Replayed: 2, CommitsCarried: 9, CommitsExplicit: 1, Rescatters: 3, AllocBytes: 1 << 20, Mallocs: 4096, GCCycles: 7},
		checkpoint.CommitRecord{Epoch: 9, Superstep: 4, Parts: map[int]uint64{2: 9}, Compressed: true},
	}
}

// decodeInChild pipes the frame bytes into a freshly started
// subprocess decoder (this test binary re-executed with the gob-check
// env set — a fresh gob type registry and nothing shared with the
// encoder beyond the package init) and returns the child's per-frame
// %#v digests.
func decodeInChild(t *testing.T, frames []byte) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	cmd := oexec.Command(exe)
	cmd.Env = append(os.Environ(), envGobCheck+"=1")
	cmd.Stdin = bytes.NewReader(frames)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("gob-check child: %v (stderr: %s)", err, stderr.String())
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

// TestGobWireCompatAcrossProcesses round-trips one populated sample of
// every wire type through a fresh subprocess decoder — gob for the
// control frames listed in wireMessages, raw columnar for the hot-path
// kinds (the golden samples). A type gob cannot carry across processes,
// a type missing from the registration list, a raw codec asymmetry, or
// a type that has both codecs fails here instead of mid-superstep in
// production.
func TestGobWireCompatAcrossProcesses(t *testing.T) {
	samples := sampleMessages()
	wire := wireMessages()
	if len(samples) != len(wire) {
		t.Fatalf("sampleMessages has %d entries, wireMessages %d — keep the suites in lockstep",
			len(samples), len(wire))
	}
	for i := range samples {
		if got, want := reflect.TypeOf(samples[i]), reflect.TypeOf(wire[i]); got != want {
			t.Fatalf("sample %d is %v, wireMessages lists %v", i, got, want)
		}
		if _, raw := rawKindOf(samples[i]); raw {
			t.Fatalf("%T is gob-registered and has a raw kind: one codec per payload", samples[i])
		}
	}
	for _, c := range goldenRawCases() {
		samples = append(samples, c.m)
	}
	var frames bytes.Buffer
	for _, m := range samples {
		if err := writeFrame(&frames, m); err != nil {
			t.Fatalf("encoding %T: %v", m, err)
		}
	}
	got := decodeInChild(t, frames.Bytes())
	if len(got) != len(samples) {
		t.Fatalf("child decoded %d frames, want %d:\n%s", len(got), len(samples), got)
	}
	for i, m := range samples {
		if want := fmt.Sprintf("%#v", m); got[i] != want {
			t.Errorf("frame %d (%T) mutated across the process boundary:\n sent %s\n got  %s",
				i, m, want, got[i])
		}
	}
}

// TestHotPayloadHasNoGobForm pins the other half of "one codec per
// payload": a gob frame claiming to carry a hot-path payload is
// rejected, so no peer can reintroduce the fallback by just sending it.
func TestHotPayloadHasNoGobForm(t *testing.T) {
	for _, c := range goldenRawCases() {
		var body bytes.Buffer
		body.WriteByte(0x00) // wire.CodecGob
		err := gob.NewEncoder(&body).Encode(Frame{ID: 1, M: c.m})
		if err == nil {
			frame := make([]byte, netfault.HeaderLen, netfault.HeaderLen+body.Len())
			netfault.PutHeader(frame, body.Len())
			_, _, err = readFrameCfg(bytes.NewReader(append(frame, body.Bytes()...)), defaultWire)
		}
		if err == nil {
			t.Errorf("%s: a gob-encoded %T was accepted", c.name, c.m)
		}
	}
}
