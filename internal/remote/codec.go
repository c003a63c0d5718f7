package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"aide/internal/vm"
	"aide/internal/wire"
)

// Binary wire codec for the RPC envelope. Every remote crossing — field
// access, invocation, migration, distributed-GC release — moves one
// Message, so the per-message encode cost is the platform's per-call
// overhead (the difference CloneCloud and COARA identify between
// offloading that pays off and offloading that doesn't). The codec is a
// hand-rolled length-prefixed frame:
//
//	frame   := uvarint(len(payload)) payload
//	payload := version kind uvarint(ID) field*
//	field   := tag tag-dependent-encoding
//
// Zero-valued fields are omitted entirely; the tag's presence is the
// field's presence. Decoding an unknown tag or version fails loudly —
// evolution happens by bumping wireVersion, never by silently skipping.
// Encode buffers are pooled; decode copies what it keeps, so frames can
// be reused immediately.
//
// A frame's size is the length of its bytes, stamped on Message.Wire by
// whoever encodes or decodes it; nothing computes one without them.

// wireVersion is the frame format version; the first payload byte.
const wireVersion = 1

// maxFrame bounds frame payloads, so a corrupt length prefix cannot force
// an arbitrary allocation; prefixRoom is the widest length prefix a frame
// can then have (maxFrame fits 32 bits).
const (
	maxFrame   = 1 << 28
	prefixRoom = binary.MaxVarintLen32
)

// Field tags, one per Message field that can appear on the wire (ID and
// Kind live in the fixed header). Presence tags (tagReply,
// tagSelfIsSenderLocal) carry no payload.
const (
	tagReply = iota + 1
	tagErr
	tagObj
	tagClass
	tagMethod
	tagField
	tagSelfIsSenderLocal
	tagArgs
	tagRet
	tagElapsedNanos
	tagBatch
	tagIDs
	tagClasses
	tagObjects
	tagMovedBytes
	tagFreeBytes
	tagCapacityBytes
	tagCPUSpeed
	tagCalls
	tagRets
	tagErrIndex
	tagErrCode
	tagSessions
	tagBlob
	_ // tags 25 and 26 are retired, never reused: decode rejects them as unknown
	_
)

// The codec encodes every field of Message and of the vm wire structs
// it embeds, but Message.Wire (stamped, not sent). The field-coverage
// test in codec_test.go holds it to that: a field no sample carries
// through a round trip, or an unexported one, fails it by name.

// framePool recycles encode/receive buffers across messages.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

func getFrameBuf() *[]byte            { return framePool.Get().(*[]byte) }
func putFrameBuf(p *[]byte, b []byte) { *p = b[:0]; framePool.Put(p) }

// appendTagVarint and appendTagString append an optional scalar field —
// nothing when it is zero, else its tag and value.
func appendTagVarint(buf []byte, tag byte, v int64) []byte {
	if v == 0 {
		return buf
	}
	return binary.AppendVarint(append(buf, tag), v)
}

func appendTagString(buf []byte, tag byte, s string) []byte {
	if s == "" {
		return buf
	}
	return wire.AppendString(append(buf, tag), s)
}

// appendMessage appends m's payload (no length prefix) to buf.
func appendMessage(buf []byte, m *Message) []byte {
	buf = append(buf, wireVersion, byte(m.Kind))
	buf = binary.AppendUvarint(buf, m.ID)
	if m.Reply {
		buf = append(buf, tagReply)
	}
	buf = appendTagString(buf, tagErr, m.Err)
	buf = appendTagVarint(buf, tagObj, int64(m.Obj))
	buf = appendTagString(buf, tagClass, m.Class)
	buf = appendTagString(buf, tagMethod, m.Method)
	buf = appendTagString(buf, tagField, m.Field)
	if m.SelfIsSenderLocal {
		buf = append(buf, tagSelfIsSenderLocal)
	}
	if len(m.Args) > 0 {
		buf = append(buf, tagArgs)
		buf = binary.AppendUvarint(buf, uint64(len(m.Args)))
		for i := range m.Args {
			buf = m.Args[i].AppendWire(buf)
		}
	}
	if m.Ret.Kind != vm.KindNil {
		buf = append(buf, tagRet)
		buf = m.Ret.AppendWire(buf)
	}
	buf = appendTagVarint(buf, tagElapsedNanos, m.ElapsedNanos)
	if len(m.Batch) > 0 {
		buf = append(buf, tagBatch)
		buf = binary.AppendUvarint(buf, uint64(len(m.Batch)))
		for i := range m.Batch {
			buf = m.Batch[i].AppendWire(buf)
		}
	}
	if len(m.IDs) > 0 {
		buf = append(buf, tagIDs)
		buf = binary.AppendUvarint(buf, uint64(len(m.IDs)))
		for _, id := range m.IDs {
			buf = binary.AppendVarint(buf, int64(id))
		}
	}
	if len(m.Classes) > 0 {
		buf = append(buf, tagClasses)
		buf = binary.AppendUvarint(buf, uint64(len(m.Classes)))
		for _, c := range m.Classes {
			buf = wire.AppendString(buf, c)
		}
	}
	buf = appendTagVarint(buf, tagObjects, m.Objects)
	buf = appendTagVarint(buf, tagMovedBytes, m.MovedBytes)
	buf = appendTagVarint(buf, tagFreeBytes, m.FreeBytes)
	buf = appendTagVarint(buf, tagCapacityBytes, m.CapacityBytes)
	if m.CPUSpeed != 0 {
		buf = append(buf, tagCPUSpeed)
		buf = wire.AppendFloat(buf, m.CPUSpeed)
	}
	if len(m.Calls) > 0 {
		buf = append(buf, tagCalls)
		buf = binary.AppendUvarint(buf, uint64(len(m.Calls)))
		for i := range m.Calls {
			buf = appendPipelineCall(buf, &m.Calls[i])
		}
	}
	if len(m.Rets) > 0 {
		buf = append(buf, tagRets)
		buf = binary.AppendUvarint(buf, uint64(len(m.Rets)))
		for i := range m.Rets {
			buf = m.Rets[i].AppendWire(buf)
		}
	}
	buf = appendTagVarint(buf, tagErrIndex, int64(m.ErrIndex))
	if m.ErrCode != 0 {
		buf = append(buf, tagErrCode, m.ErrCode)
	}
	buf = appendTagVarint(buf, tagSessions, m.Sessions)
	if len(m.Blob) > 0 {
		buf = append(buf, tagBlob)
		buf = wire.AppendBytes(buf, m.Blob)
	}
	return buf
}

// appendPipelineCall appends one pipelined call. The first byte
// discriminates the receiver form — byte(MsgPromiseRef) introduces a
// varint index of an earlier call in the same frame, byte(MsgInvoke) a
// varint object ID in the receiver's namespace — followed by the method
// name, the argument list (KindNil placeholders at promise positions),
// and the promise-argument substitutions.
func appendPipelineCall(buf []byte, c *vm.PipelineCall) []byte {
	if c.Recv >= 0 {
		buf = append(buf, byte(MsgPromiseRef))
		buf = binary.AppendVarint(buf, int64(c.Recv))
	} else {
		buf = append(buf, byte(MsgInvoke))
		buf = binary.AppendVarint(buf, int64(c.Obj))
	}
	buf = wire.AppendString(buf, c.Method)
	buf = binary.AppendUvarint(buf, uint64(len(c.Args)))
	for i := range c.Args {
		buf = c.Args[i].AppendWire(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(c.ArgPromises)))
	for _, ap := range c.ArgPromises {
		buf = binary.AppendVarint(buf, int64(ap.Pos))
		buf = binary.AppendVarint(buf, int64(ap.Call))
	}
	return buf
}

// decodePipelineCall decodes one pipelined call in place. A concrete
// receiver decodes with the canonical Recv of -1. Argument slices are
// carved full-capacity out of *arena (grown in blocks), so a frame of
// many calls costs a handful of allocations rather than one per call.
func decodePipelineCall(c *vm.PipelineCall, r *wire.Reader, arena *[]vm.WireValue) {
	form := MsgKind(r.Byte())
	x := r.Varint()
	switch form {
	case MsgPromiseRef:
		c.Recv = promiseIndex(r, x)
	case MsgInvoke:
		c.Recv = -1
		c.Obj = vm.ObjectID(x)
	default:
		r.Fail(errReceiverForm)
	}
	c.Method = r.String()
	if n := r.Count(); n > 0 {
		if n > len(*arena) {
			*arena = make([]vm.WireValue, max(n, 64))
		}
		c.Args = (*arena)[:n:n]
		*arena = (*arena)[n:]
		for i := range c.Args {
			c.Args[i].ReadWire(r)
		}
	}
	if n := r.Count(); n > 0 {
		c.ArgPromises = make([]vm.PromiseArg, n)
		for i := range c.ArgPromises {
			c.ArgPromises[i] = vm.PromiseArg{Pos: promiseIndex(r, r.Varint()), Call: promiseIndex(r, r.Varint())}
		}
	}
}

// Sentinels, not fmt.Errorf: a call list is walked to its end (as no-ops,
// form byte 0) after the reader has failed, and that must not allocate.
var (
	errReceiverForm = errors.New("unknown pipeline receiver form")
	errPromiseRange = errors.New("pipeline promise index out of int32 range")
)

// promiseIndex narrows a decoded promise receiver, argument position or
// call index, failing the reader when it is negative or past int32.
func promiseIndex(r *wire.Reader, x int64) int32 {
	if x < 0 || x > math.MaxInt32 {
		r.Fail(errPromiseRange)
		return 0
	}
	return int32(x)
}

// encodeFrame encodes m's frame at the end of buf and stamps its length
// on m.Wire. The payload is encoded once, behind room for the widest
// prefix, and the prefix is then written right-aligned against it: the
// frame is out[start:], and the few bytes before start are slack.
func encodeFrame(buf []byte, m *Message) (out []byte, start int, err error) {
	head := len(buf) + prefixRoom
	out = appendMessage(append(buf, make([]byte, prefixRoom)...), m)
	n := len(out) - head
	if n > maxFrame {
		return nil, 0, fmt.Errorf("remote: codec: %s frame of %d bytes exceeds limit", m.Kind, n)
	}
	var prefix [prefixRoom]byte
	start = head - binary.PutUvarint(prefix[:], uint64(n))
	copy(out[start:head], prefix[:])
	m.Wire = int64(len(out) - start)
	return out, start, nil
}

// decodeMessage decodes one payload (without length prefix) into a fresh
// Message, whose Wire is the caller's to stamp. The result does not alias
// data; callers may recycle the buffer immediately.
func decodeMessage(data []byte) (*Message, error) {
	r := wire.NewReader(data)
	if v := r.Byte(); v != wireVersion {
		r.Fail(fmt.Errorf("unsupported wire version %d (have %d)", v, wireVersion))
	}
	m := &Message{Kind: MsgKind(r.Byte()), ID: r.Uvarint()}
	for r.Len() > 0 {
		switch tag := r.Byte(); tag {
		case tagReply:
			m.Reply = true
		case tagErr:
			m.Err = r.String()
		case tagObj:
			m.Obj = vm.ObjectID(r.Varint())
		case tagClass:
			m.Class = r.String()
		case tagMethod:
			m.Method = r.String()
		case tagField:
			m.Field = r.String()
		case tagSelfIsSenderLocal:
			m.SelfIsSenderLocal = true
		case tagArgs:
			m.Args = readValues(&r)
		case tagRet:
			m.Ret.ReadWire(&r)
		case tagElapsedNanos:
			m.ElapsedNanos = r.Varint()
		case tagBatch:
			if n := r.Count(); n > 0 {
				m.Batch = make([]vm.MigratedObject, n)
				for i := range m.Batch {
					m.Batch[i].ReadWire(&r)
				}
			}
		case tagIDs:
			if n := r.Count(); n > 0 {
				m.IDs = make([]vm.ObjectID, n)
				for i := range m.IDs {
					m.IDs[i] = vm.ObjectID(r.Varint())
				}
			}
		case tagClasses:
			if n := r.Count(); n > 0 {
				m.Classes = make([]string, n)
				for i := range m.Classes {
					m.Classes[i] = r.String()
				}
			}
		case tagObjects:
			m.Objects = r.Varint()
		case tagMovedBytes:
			m.MovedBytes = r.Varint()
		case tagFreeBytes:
			m.FreeBytes = r.Varint()
		case tagCapacityBytes:
			m.CapacityBytes = r.Varint()
		case tagCPUSpeed:
			m.CPUSpeed = r.Float()
		case tagCalls:
			if n := r.Count(); n > 0 {
				m.Calls = make([]vm.PipelineCall, n)
				var argArena []vm.WireValue
				for i := range m.Calls {
					decodePipelineCall(&m.Calls[i], &r, &argArena)
				}
			}
		case tagRets:
			m.Rets = readValues(&r)
		case tagErrIndex:
			m.ErrIndex = int32(r.Varint())
		case tagErrCode:
			m.ErrCode = r.Byte()
		case tagSessions:
			m.Sessions = r.Varint()
		case tagBlob:
			m.Blob = r.Bytes()
		default:
			r.Fail(fmt.Errorf("unknown field tag %d", tag))
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("remote: codec: %w", err)
	}
	return m, nil
}

// readValues decodes a counted WireValue list; an empty list is nil.
func readValues(r *wire.Reader) []vm.WireValue {
	n := r.Count()
	if n == 0 {
		return nil
	}
	vals := make([]vm.WireValue, n)
	for i := range vals {
		vals[i].ReadWire(r)
	}
	return vals
}

// AppendFrame appends m's complete wire frame — uvarint length prefix
// plus binary-codec payload, exactly the bytes NewConnTransport puts on
// the socket — to buf and returns the extended slice, stamping m.Wire. It
// is the codec's public face for tools and benchmarks: appending means
// closing the slack before the prefix, a move the transports, which write
// the frame from where it lies, do not make.
func AppendFrame(buf []byte, m *Message) ([]byte, error) {
	out, start, err := encodeFrame(buf, m)
	if err != nil {
		return nil, err
	}
	n := copy(out[len(buf):], out[start:])
	return out[:len(buf)+n], nil
}

// DecodeFrame decodes one frame produced by AppendFrame.
func DecodeFrame(data []byte) (*Message, error) {
	r := wire.NewReader(data)
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("remote: codec: frame length prefix: %w", err)
	}
	if n > maxFrame {
		return nil, fmt.Errorf("remote: codec: frame of %d bytes exceeds limit", n)
	}
	frame := data[:len(data)-r.Len()+n]
	m, err := decodeMessage(frame[len(frame)-n:])
	if err == nil {
		m.Wire = int64(len(frame))
	}
	return m, err
}
