// Package codec holds the low-level binary serialization primitives shared
// by the durability formats: the WAL record codec (peb/walcodec.go), the
// checkpoint meta (peb/checkpoint.go) and the policy snapshot
// (internal/policy/persist.go).
//
// Two conventions tie the formats together:
//
//   - Append-style encoding. Every encoder is a pure append onto a
//     caller-owned []byte, so hot paths reuse one buffer and allocate
//     nothing at steady state.
//
//   - One generation per file kind. Every persisted format opens with a
//     stamp — a magic byte plus a version byte here, a Version field in the
//     router's JSON manifest — and its reader accepts exactly the current one.
//     Anything else is refused with ErrUnsupportedFormat before the open
//     touches the directory; nothing is migrated.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrUnsupportedFormat is wrapped by every error an open returns for
// on-disk state that carries another generation's stamp (or none): the
// bytes may be intact, but this build does not read them. Match with
// errors.Is.
var ErrUnsupportedFormat = errors.New("unsupported on-disk format")

// Magic bytes of the binary formats.
const (
	// MagicWALRecord marks a binary WAL record (peb/walcodec.go).
	MagicWALRecord = 0xB6
	// MagicPolicySnapshot marks an enveloped policy snapshot
	// (internal/policy/persist.go).
	MagicPolicySnapshot = 0xC7
	// MagicCheckpointMeta marks a checkpoint meta (peb/checkpoint.go).
	MagicCheckpointMeta = 0xD8
)

// AppendUvarint appends v in unsigned varint encoding.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendFloat appends f as a "vfloat": the IEEE-754 bits byte-reversed,
// then varint-encoded. Real-world coordinates and timestamps are mostly
// small integers or short decimals whose mantissa tail is zero; the byte
// swap moves those zeros to the top where the varint drops them, so
// typical values cost 2–4 bytes instead of 8. The transform is exact for
// every float64 (NaN, ±Inf and −0 included).
func AppendFloat(b []byte, f float64) []byte {
	return binary.AppendUvarint(b, bits.ReverseBytes64(math.Float64bits(f)))
}

// AppendBytes appends p as a uvarint length followed by the raw bytes.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Reader is a strict bounds-checked decoder over one encoded buffer. Every
// Take* method validates its read and records the first failure in err;
// after a failure all further reads return zero values, so decoders can
// read a whole structure and check Err once. A Reader never panics on
// arbitrary input — the property the WAL fuzz tests pin.
type Reader struct {
	data []byte
	pos  int
	err  error
}

// NewReader returns a Reader over data starting at offset pos (callers
// typically skip the magic byte they already dispatched on).
func NewReader(data []byte, pos int) *Reader {
	return &Reader{data: data, pos: pos}
}

// Err returns the first decode failure, or nil.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.data) - r.pos }

// Failf records a decode failure (the first one wins). Decoders use it for
// semantic validation beyond raw bounds checks.
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// ExpectEnd fails unless the buffer is fully consumed — trailing garbage
// means a framing bug or corruption, never padding.
func (r *Reader) ExpectEnd() {
	if r.err == nil && r.pos != len(r.data) {
		r.Failf("%d trailing bytes", len(r.data)-r.pos)
	}
}

// TakeUvarint reads one unsigned varint; what names the field in errors.
func (r *Reader) TakeUvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.Failf("truncated %s at byte %d", what, r.pos)
		return 0
	}
	r.pos += n
	return v
}

// TakeFloat reads one vfloat (see AppendFloat).
func (r *Reader) TakeFloat(what string) float64 {
	return math.Float64frombits(bits.ReverseBytes64(r.TakeUvarint(what)))
}

// TakeByte reads one raw byte.
func (r *Reader) TakeByte(what string) byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.Failf("truncated %s at byte %d", what, r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

// TakeBytes reads a length-prefixed byte field (see AppendBytes), copying
// the payload so the result outlives the encoded buffer. The length is
// validated against the remaining input before any allocation, so a
// corrupt length cannot trigger a huge make.
func (r *Reader) TakeBytes(what string) []byte {
	v := r.TakeBytesView(what)
	if len(v) == 0 {
		return nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out
}

// TakeBytesView reads a length-prefixed byte field like TakeBytes, but
// returns the field's bytes inside the encoded buffer instead of a copy:
// read-only, and valid only as long as the buffer is. It allocates
// nothing.
func (r *Reader) TakeBytesView(what string) []byte {
	if r.err != nil {
		return nil
	}
	n, k := binary.Uvarint(r.data[r.pos:])
	if k <= 0 {
		r.Failf("truncated %s length at byte %d", what, r.pos)
		return nil
	}
	r.pos += k
	if n > uint64(len(r.data)-r.pos) {
		r.Failf("%s length %d exceeds %d remaining bytes", what, n, len(r.data)-r.pos)
		return nil
	}
	out := r.data[r.pos : r.pos+int(n) : r.pos+int(n)]
	r.pos += int(n)
	return out
}

// TakeCount reads a uvarint element count and validates it against the
// bytes that could possibly back it (minBytes per element), so decoders
// can size slices up front without a corrupt count causing an OOM.
func (r *Reader) TakeCount(what string, minBytes int) int {
	n := r.TakeUvarint(what)
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.Len()/minBytes) {
		r.err = &countError{what: what, n: n, left: r.Len()}
		return 0
	}
	return int(n)
}

// countError is TakeCount's refusal, formatted only when read: refusing a
// corrupt count — what a damaged log meets first — costs one allocation.
type countError struct {
	what string
	n    uint64
	left int
}

func (e *countError) Error() string {
	return fmt.Sprintf("%s %d exceeds %d remaining bytes", e.what, e.n, e.left)
}
