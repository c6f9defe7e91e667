// Package wire defines the versioned flat binary frame format of the
// proc cluster's hot path. Every frame on a proc connection is a
// 4-byte big-endian payload length (netfault.HeaderLen) followed by a
// payload whose FIRST byte selects the codec:
//
//	CodecGob  payload = [0x00][gob(Frame{ID, M})]
//	CodecRaw  payload = [0x01][version][kind][id: 8 bytes LE][body]
//
// The gob codec is the PR 8 protocol unchanged (fresh encoder per
// frame, self-contained type descriptors) and is the path for low-rate
// control frames — handshakes, heartbeats, acks, membership RPCs. The
// raw codec is the columnar path for hot-path payloads: the body is a
// sequence of little-endian column segments and byte sections (see
// package colbytes) written by loops over the job's flat arrays, with
// no reflection, no type descriptors and no per-frame codec state.
// Every payload has exactly one codec, fixed by its type — there is
// nothing to select or negotiate.
//
// Versioning: the raw header carries Version. A decoder seeing a
// different version fails the frame with *VersionError — the typed
// rejection the cross-process compatibility suite pins — rather than
// misreading the body. The gob side needs no version byte of its own:
// gob payloads are self-describing.
//
// Buffer ownership: encoders assemble frames in pooled buffers
// (GetBuf/PutBuf). A pooled buffer may be recycled the moment the
// frame's Write returns, so decoded messages must own their memory —
// every raw decoder copies column data out of the frame buffer into an
// arena before returning — exactly-sized, or one the caller recycles for
// a superstep's exchange columns. Nothing decoded aliases the receive
// buffer.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"optiflow/internal/cluster/proc/netfault"
)

// Version is the raw-codec format version. Bump it whenever a body
// encoding changes shape; the decoder rejects any other version with
// *VersionError.
const Version byte = 6

// Codec tags — the first payload byte of every frame.
const (
	CodecGob byte = 0x00
	CodecRaw byte = 0x01
)

// Raw payload kinds. The kind byte names the concrete message type of
// a raw frame's body, playing the role gob's type descriptor plays on
// the gob side.
const (
	KStepReq    byte = 1
	KStepResp   byte = 2
	KFetchReq   byte = 3
	KFetchResp  byte = 4
	KRestoreReq byte = 5
	KLoadReq    byte = 6
	KSnapshot   byte = 7
	KCompReq    byte = 8
	KCompResp   byte = 9
)

// MaxFrame is the hard ceiling on any payload, inherited from the
// length-prefix layer. Configurable caps (see SizeError) may only
// lower it.
const MaxFrame = netfault.MaxFrame

// SizeError is the typed oversized-frame rejection, raised on the
// encode path (a frame grew past the cap before hitting the network)
// and on the decode path (a length prefix claims more than the cap —
// corrupt, or an unconfigured peer). It ends the connection: a frame
// too large to buffer cannot be skipped on a stream.
type SizeError struct {
	Size  int // payload bytes, excluding the length prefix
	Limit int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("wire: frame payload %d bytes exceeds cap %d", e.Size, e.Limit)
}

// CheckSize validates a payload size against a cap (0 means MaxFrame).
func CheckSize(size, limit int) error {
	if limit <= 0 || limit > MaxFrame {
		limit = MaxFrame
	}
	if size > limit {
		return &SizeError{Size: size, Limit: limit}
	}
	return nil
}

// ErrMalformed marks a frame that makes no sense — an empty payload, an
// unknown codec tag or raw kind, a gob or raw body that does not decode.
// A truncated or corrupt raw body's error also wraps
// colbytes.ErrTruncated.
var ErrMalformed = errors.New("wire: malformed frame")

// VersionError is the typed raw-format version rejection.
type VersionError struct {
	Got, Want byte
}

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: raw format version %d, this binary speaks %d", e.Got, e.Want)
}

// Buf is a pooled frame-assembly buffer. Pooled as a pointer so
// returning one to the pool does not itself allocate a slice header.
type Buf struct {
	B []byte
}

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// GetBuf fetches a pooled buffer with zero length and whatever
// capacity its last user grew it to.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf recycles a buffer. The caller must not touch b.B afterwards —
// including any decoded value that aliases it, which is why decoders
// copy (see the package comment's ownership rule).
func PutBuf(b *Buf) { bufPool.Put(b) }
