package vm

import (
	"encoding/binary"
	"fmt"

	"aide/internal/wire"
)

// Binary wire form of the VM's wire types (WireValue, WireRef,
// MigratedObject), embedded by the remote module's message codec. Each
// type's AppendWire and ReadWire sit next to each other so the
// codec and the structs are one review unit; the remote codec's
// field-coverage test (internal/remote/codec_test.go) fails when a field
// of these structs does not survive a round trip. Primitives, their
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
	buf = append(buf, byte(w.Kind))
	switch w.Kind {
	case KindInt:
		buf = binary.AppendVarint(buf, w.I)
	case KindFloat:
		buf = wire.AppendFloat(buf, w.F)
	case KindBool:
		buf = wire.AppendBool(buf, w.B)
	case KindString:
		buf = wire.AppendString(buf, w.S)
	case KindBytes:
		buf = wire.AppendBytes(buf, w.Bytes)
	case KindRef:
		buf = w.Ref.AppendWire(buf)
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

// AppendWire appends the migrated object's binary wire form.
func (m *MigratedObject) AppendWire(buf []byte) []byte {
	buf = binary.AppendVarint(buf, int64(m.SenderID))
	buf = wire.AppendString(buf, m.Class)
	buf = binary.AppendVarint(buf, m.Size)
	buf = binary.AppendUvarint(buf, uint64(len(m.Fields)))
	for i := range m.Fields {
		buf = m.Fields[i].AppendWire(buf)
	}
	return buf
}

// ReadWire decodes one MigratedObject in place; a fieldless object
// decodes with nil Fields.
func (m *MigratedObject) ReadWire(r *wire.Reader) {
	var slab []WireValue
	m.readWire(r, &slab, 1)
}

// ReadMigrationBatch decodes a counted list of MigratedObjects (an empty
// list is nil), carving their Fields from as few slabs as the batch's
// shapes allow: one when every object has as many fields as the first.
func ReadMigrationBatch(r *wire.Reader) []MigratedObject {
	n := r.Count()
	if n == 0 {
		return nil
	}
	batch := make([]MigratedObject, n)
	var slab []WireValue
	for i := range batch {
		batch[i].readWire(r, &slab, n-i)
	}
	return batch
}

// readWire decodes one MigratedObject in place, the first of left still to
// come, taking its Fields from the front of *slab. When the slab is short
// it is replaced by one sized for left objects shaped like this one,
// bounded by the bytes left (every field is at least one).
func (m *MigratedObject) readWire(r *wire.Reader, slab *[]WireValue, left int) {
	*m = MigratedObject{SenderID: ObjectID(r.Varint()), Class: r.String(), Size: r.Varint()}
	k := r.Count()
	if k == 0 {
		return
	}
	if len(*slab) < k {
		*slab = make([]WireValue, min(k*left, r.Len()))
	}
	m.Fields = (*slab)[:k:k]
	*slab = (*slab)[k:]
	for i := range m.Fields {
		m.Fields[i].ReadWire(r)
	}
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
