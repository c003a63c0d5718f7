// Package wire is the platform's one wire-primitive layer: the bounded
// reader and the append helpers under all four hand-rolled binary
// formats — the RPC envelope (internal/remote/codec.go), the VM's wire
// values (internal/vm/wirecodec.go), the snapshot image
// (internal/snapshot/codec.go) and recorded trace files
// (internal/trace/io.go). Each format keeps its own layout, version
// byte and format-level checks; what a primitive looks like and how a
// read of one fails is decided here and nowhere else.
//
// Encoding rules:
//
//   - unsigned integers (counts, lengths) are LEB128 uvarints,
//   - signed integers are zigzag varints (encoding/binary.AppendVarint),
//   - floats are 8-byte little-endian IEEE-754 bit patterns,
//   - bools are one byte, written 0 or 1,
//   - strings and byte blobs are a uvarint length plus the raw bytes,
//   - a decoded zero-length blob or list is nil, so
//     encode(decode(encode(x))) is byte-identical to encode(x).
//
// Decoding goes through Reader: its first failure sticks, so a decoder
// reads straight through and asks Err once at the end, and every count
// or length passes Count, the single anti-OOM guard.
//
// Encoding stays with each format (encoding/binary's Append functions
// plus the helpers below).
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"strconv"
	"sync/atomic"
)

// Failure causes of a primitive read; Reader.Err wraps one in an *Error.
var (
	ErrTruncated = errors.New("truncated input")
	ErrOverlong  = errors.New("varint overflows 64 bits")
	ErrCount     = errors.New("declared count or length exceeds remaining bytes")
)

// Error is a decode failure with the offset of the first byte that was
// not consumed when it happened.
type Error struct {
	Off int
	Err error
}

func (e *Error) Error() string { return "wire: " + e.Err.Error() + " at byte " + strconv.Itoa(e.Off) }
func (e *Error) Unwrap() error { return e.Err }

// Reader consumes primitives from a byte slice it never writes to. After
// the first failure every read returns the zero value in constant time
// and allocates nothing — in particular Count returns 0, so no further
// decode loop starts and one in progress finishes as no-ops — and Err
// keeps reporting that first failure.
// Nothing a Reader returns aliases its input.
//
// The position is an index, not a shrinking slice: advancing it stores no
// pointer through r, so reads carry no GC write barrier (measured: a
// reslicing reader made a small-frame decode 27% slower).
type Reader struct {
	data []byte
	off  int // next unread byte; len(data) once failed
	err  error
}

// NewReader returns a Reader over data. It is returned by value so a
// decoder's reader lives on its stack.
func NewReader(data []byte) Reader { return Reader{data: data} }

// Len returns the number of unread bytes (0 once failed).
func (r *Reader) Len() int { return len(r.data) - r.off }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records a format-level failure (unknown tag, non-canonical form,
// trailing bytes) found by the decoder itself. Like a failed read it
// sticks, and it is ignored if the reader has already failed — but its
// argument is built either way, so a check that a zero read can trip
// inside a decode loop passes a sentinel, not a formatted error. (Out of
// line, so the reads that call it stay small.)
//
//go:noinline
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = &Error{Off: r.off, Err: err}
		r.off = len(r.data)
	}
}

// Uvarint reads a LEB128 unsigned integer.
func (r *Reader) Uvarint() uint64 {
	x, n := binary.Uvarint(r.data[r.off:]) // x is 0 unless n > 0
	if n > 0 {
		r.off += n
	} else if n == 0 {
		r.Fail(ErrTruncated)
	} else {
		r.Fail(ErrOverlong)
	}
	return x
}

// Varint reads a zigzag-encoded signed integer.
func (r *Reader) Varint() int64 {
	ux := r.Uvarint()
	return int64(ux>>1) ^ -int64(ux&1)
}

// Byte reads one byte. (Written with one return so it stays inside the
// inliner's budget; it is the read every tag and kind switch starts with.)
func (r *Reader) Byte() (b byte) {
	if r.off < len(r.data) {
		b = r.data[r.off]
		r.off++
	} else {
		r.Fail(ErrTruncated)
	}
	return b
}

// Bool reads one byte as a bool; any non-zero byte is true.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// Float reads an 8-byte little-endian IEEE-754 float.
func (r *Reader) Float() float64 {
	if r.Len() < 8 {
		r.Fail(ErrTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off:]))
	r.off += 8
	return f
}

// Count reads a uvarint that sizes what follows — a list's element count
// or a blob's byte length — and refuses one larger than the bytes left.
// Every element of every format occupies at least one byte, so such a
// count is corrupt; refusing it before anything is allocated from it
// keeps a hostile frame's cost to a small multiple of its own length.
func (r *Reader) Count() int {
	n := r.Uvarint()
	if n > uint64(r.Len()) {
		r.Fail(ErrCount)
		return 0
	}
	return int(n)
}

// next consumes a counted run of bytes and returns it, aliasing the input.
func (r *Reader) next() []byte {
	n := r.Count()
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// Bytes reads a counted blob into a fresh slice; an empty blob is nil.
func (r *Reader) Bytes() []byte { return append([]byte(nil), r.next()...) }

// String reads a counted string. The result is a copy, or an interned
// equal when it is short.
func (r *Reader) String() string { return intern(r.next()) }

// Short-string interning for the decode path: wire traffic repeats the
// same method, class, and field names endlessly — a pipelined frame
// would otherwise allocate one copy per call. The cache is a small
// direct-mapped table of atomically published strings; collisions just
// fall back to a fresh copy, and concurrent decoders (one per peer)
// race benignly on publication.
const internMaxLen = 32

var internTab [512]atomic.Pointer[string]

func intern(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h = (h ^ uint32(c)) * 16777619
	}
	slot := &internTab[h%uint32(len(internTab))]
	if p := slot.Load(); p != nil && *p == string(b) {
		return *p
	}
	s := string(b)
	slot.Store(&s)
	return s
}

// AppendString appends a counted string.
func AppendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendBytes appends a counted blob.
func AppendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// AppendFloat appends an 8-byte little-endian IEEE-754 float.
func AppendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// AppendBool appends one byte, 1 for true and 0 for false.
func AppendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}
