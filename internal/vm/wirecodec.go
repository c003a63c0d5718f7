package vm

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aide/internal/wire"
)

// Binary wire form of the VM's wire types (WireValue, WireRef) and of a
// migration batch, embedded by the remote module's message codec. Each
// type's AppendWire and ReadWire sit next to each other so the
// codec and the structs are one review unit; the remote codec's
// field-coverage test (internal/remote/codec_test.go) fails when a field
// of these structs does not survive a round trip. A batch has no struct:
// ExtractMigration writes it from the heap, ScanBatch finds its end, and
// AdoptMigration reads it into the heap (migrate.go). Primitives, their
// failure modes and the encoding rules are internal/wire's.

// AppendWire appends the reference's binary wire form: a locality byte,
// the zigzag-varint ID, and — for sender-namespace references only — the
// class name the receiver needs to type its stub.
func (r *WireRef) AppendWire(buf []byte) []byte {
	buf = wire.AppendBool(buf, r.ReceiverLocal)
	buf = binary.AppendVarint(buf, int64(r.ID))
	if !r.ReceiverLocal {
		buf = wire.AppendString(buf, r.Class)
	}
	return buf
}

// ReadWire decodes one WireRef in place.
func (r *WireRef) ReadWire(rd *wire.Reader) {
	*r = WireRef{ReceiverLocal: rd.Bool(), ID: ObjectID(rd.Varint())}
	if !r.ReceiverLocal {
		r.Class = rd.String()
	}
}

// AppendWire appends the value's binary wire form: a kind byte followed
// by the kind-dependent payload. Fields irrelevant to the kind are not
// encoded, so decoding always yields the canonical representation.
func (w *WireValue) AppendWire(buf []byte) []byte {
	if w.Kind == KindRef {
		return w.Ref.AppendWire(append(buf, byte(KindRef)))
	}
	return appendScalar(buf, w.Kind, w.I, w.F, w.B, w.S, w.Bytes)
}

// appendScalar appends a non-reference value's wire form. WireValue and a
// migration batch's fields (ExtractMigration) both write theirs with it.
func appendScalar(buf []byte, kind ValueKind, i int64, f float64, b bool, s string, bs []byte) []byte {
	buf = append(buf, byte(kind))
	switch kind {
	case KindInt:
		buf = binary.AppendVarint(buf, i)
	case KindFloat:
		buf = wire.AppendFloat(buf, f)
	case KindBool:
		buf = wire.AppendBool(buf, b)
	case KindString:
		buf = wire.AppendString(buf, s)
	case KindBytes:
		buf = wire.AppendBytes(buf, bs)
	}
	return buf
}

// ReadWire decodes one WireValue in place, so decode loops fill slice
// elements directly instead of copying the ~90-byte struct through a
// return value (the RPC hot path; a pipelined frame decodes dozens of
// values per message). Byte payloads are copied out of the reader.
func (w *WireValue) ReadWire(r *wire.Reader) {
	*w = WireValue{Kind: ValueKind(r.Byte())}
	switch w.Kind {
	case KindNil:
	case KindInt:
		w.I = r.Varint()
	case KindFloat:
		w.F = r.Float()
	case KindBool:
		w.B = r.Bool()
	case KindString:
		w.S = r.String()
	case KindBytes:
		w.Bytes = r.Bytes()
	case KindRef:
		w.Ref.ReadWire(r)
	default:
		r.Fail(fmt.Errorf("vm: wire: unknown value kind %d", w.Kind))
	}
}

// errTrailing rejects bytes after a batch's last object.
var errTrailing = errors.New("trailing bytes after the batch")

// ScanBatch consumes a migration batch's wire form (Migration.Batch) from
// r, failing r where it is malformed, and returns its object count. It
// copies nothing and checks nothing a heap decides: the remote codec uses
// it to find where the batch ends, and AdoptMigration checks the rest.
func ScanBatch(r *wire.Reader) int {
	n := r.Count()
	for i := 0; i < n; i++ {
		r.Varint()
		r.View()
		r.Varint()
		for k := r.Count(); k > 0; k-- {
			skipValue(r)
		}
	}
	return n
}

// skipValue consumes one value's wire form. For a reference in the
// sender's namespace it reports the ID and the class name, aliasing r's
// input.
func skipValue(r *wire.Reader) (id ObjectID, class []byte, senderRef bool) {
	switch kind := ValueKind(r.Byte()); kind {
	case KindNil:
	case KindInt:
		r.Varint()
	case KindFloat:
		r.Float()
	case KindBool:
		r.Byte()
	case KindString, KindBytes:
		r.View()
	case KindRef:
		local, ref := r.Bool(), ObjectID(r.Varint())
		if !local {
			return ref, r.View(), r.Err() == nil
		}
	default:
		r.Fail(fmt.Errorf("vm: wire: unknown value kind %d", kind))
	}
	return 0, nil, false
}

// ExportCount reports how many export pins the peers currently hold on a
// local object (distributed-GC diagnostics; the remote module's release
// tests assert pins are dropped exactly once).
func (v *VM) ExportCount(id ObjectID) int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	if o, ok := v.objects[id]; ok {
		return o.exported
	}
	return 0
}
