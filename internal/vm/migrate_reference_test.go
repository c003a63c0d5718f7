package vm

import (
	"encoding/binary"
	"fmt"
	"slices"

	"aide/internal/trace"
	"aide/internal/wire"
)

// The per-object migrate path the direct one replaced, frozen: extraction
// into a []refMigratedObject with a []WireValue per object, its encoder
// and decoder, and its adoption. The direct path must write the same bytes
// and leave the receiver in the same state. (The reference takes a pin for
// every stay-behind referent it meets before a dangling reference aborts
// it; the direct path takes none, and TestFailedExtractionTakesNoPins
// holds it to that.)

// refMigratedObject is one object of a reference batch.
type refMigratedObject struct {
	SenderID ObjectID
	Class    string
	Size     int64
	Fields   []WireValue
}

// refExtractMigration is the reference ExtractMigration.
func refExtractMigration(v *VM, classNames []string) ([]refMigratedObject, error) {
	v.mu.Lock()
	moving := make([]bool, len(v.registry.table.Classes))
	for _, n := range classNames {
		if c := v.registry.Class(n); c != nil {
			moving[c.ix] = true
		}
	}
	ids := make([]ObjectID, 0, len(v.objects))
	fields := 0
	for id, o := range v.objects {
		if !o.Remote && moving[o.Class.ix] {
			ids = append(ids, id)
			fields += len(o.Fields)
		}
	}
	slices.Sort(ids)

	batch := make([]refMigratedObject, len(ids))
	slab := make([]WireValue, fields)
	for bi, id := range ids {
		o := v.objects[id]
		m := &batch[bi]
		*m = refMigratedObject{SenderID: id, Class: o.Class.Name, Size: o.Size, Fields: slab[:len(o.Fields):len(o.Fields)]}
		slab = slab[len(o.Fields):]
		for i, val := range o.Fields {
			w := &m.Fields[i]
			*w = WireValue{Kind: val.Kind, I: val.I, F: val.F, B: val.B, S: val.S, Bytes: val.Bytes}
			if val.Kind != KindRef {
				continue
			}
			if val.Ref == InvalidObject {
				w.Kind = KindNil
				continue
			}
			ro, ok := v.objects[val.Ref]
			if !ok {
				v.mu.Unlock()
				return nil, fmt.Errorf("vm: migrate %s#%d field %d: %w", o.Class.Name, id, i, ErrNoSuchObject)
			}
			if ro.Remote {
				w.Ref = WireRef{ReceiverLocal: true, ID: ro.PeerID}
				continue
			}
			if _, in := slices.BinarySearch(ids, val.Ref); !in {
				ro.exported++
			}
			w.Ref = WireRef{ReceiverLocal: false, ID: val.Ref, Class: ro.Class.Name}
		}
	}
	v.mu.Unlock()
	v.tm.migratedOut.Add(int64(len(batch)))
	return batch, nil
}

// refAppendBatch is the reference tagBatch section encoder: the count,
// then each object.
func refAppendBatch(buf []byte, batch []refMigratedObject) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(batch)))
	for i := range batch {
		m := &batch[i]
		buf = binary.AppendVarint(buf, int64(m.SenderID))
		buf = wire.AppendString(buf, m.Class)
		buf = binary.AppendVarint(buf, m.Size)
		buf = binary.AppendUvarint(buf, uint64(len(m.Fields)))
		for j := range m.Fields {
			buf = m.Fields[j].AppendWire(buf)
		}
	}
	return buf
}

// refReadBatch is the reference tagBatch section decoder.
func refReadBatch(r *wire.Reader) []refMigratedObject {
	n := r.Count()
	if n == 0 {
		return nil
	}
	batch := make([]refMigratedObject, n)
	for i := range batch {
		m := &batch[i]
		*m = refMigratedObject{SenderID: ObjectID(r.Varint()), Class: r.String(), Size: r.Varint()}
		if k := r.Count(); k > 0 {
			m.Fields = make([]WireValue, k)
			for j := range m.Fields {
				m.Fields[j].ReadWire(r)
			}
		}
	}
	return batch
}

// refAdoptMigration is the reference AdoptMigration.
func refAdoptMigration(v *VM, peerIdx int, batch []refMigratedObject) ([]ObjectID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()

	senders := make([]ObjectID, len(batch))
	classes := make([]*Class, len(batch))
	fields, fresh := 0, 0
	for i := range batch {
		m := &batch[i]
		if i > 0 && m.SenderID <= senders[i-1] {
			return nil, fmt.Errorf("vm: adopt %s#%d: batch not in ascending sender-ID order", m.Class, m.SenderID)
		}
		senders[i] = m.SenderID
		class := v.registry.Class(m.Class)
		if class == nil {
			return nil, fmt.Errorf("vm: adopt %s: unknown class", m.Class)
		}
		if len(m.Fields) > len(class.Fields) {
			return nil, fmt.Errorf("vm: adopt %s: field %d out of range", m.Class, len(class.Fields))
		}
		classes[i] = class
		fields += len(class.Fields)
		if _, ok := v.imports.get(peerIdx, m.SenderID); !ok {
			fresh++
		}
	}
	for i := range batch {
		for _, w := range batch[i].Fields {
			if w.Kind != KindRef || w.Ref.ReceiverLocal {
				continue
			}
			if _, in := slices.BinarySearch(senders, w.Ref.ID); in {
				continue
			}
			if v.registry.Class(w.Ref.Class) == nil {
				return nil, fmt.Errorf("vm: stub for %s#%d: unknown class", w.Ref.Class, w.Ref.ID)
			}
		}
	}

	assigned := make([]ObjectID, len(batch))
	slab := make([]Value, fields)
	objs := make([]Object, fresh)
	for i := range batch {
		m, class := &batch[i], classes[i]
		var o *Object
		counted := false
		if stubID, ok := v.imports.get(peerIdx, m.SenderID); ok {
			o = v.objects[stubID]
			counted = o.RemoteSize > 0
			o.Remote = false
			o.PeerID = 0
			o.RemoteSize = 0
			v.imports.drop(peerIdx, m.SenderID)
		} else {
			o = &objs[0]
			objs = objs[1:]
			*o = Object{ID: v.nextID, Class: class}
			v.nextID++
			v.objects[o.ID] = o
		}
		o.Size = m.Size
		o.Fields = slab[:len(class.Fields):len(class.Fields)]
		slab = slab[len(class.Fields):]
		o.exported++
		v.liveBytes += m.Size
		v.objsSinceGC++
		v.bytesSinceGC += m.Size
		assigned[i] = o.ID
		if !counted {
			v.emitLocked(trace.KindCreate, nil, class, o.ID, m.Size, 0, false, false)
		}
	}

	for i := range batch {
		o := v.objects[assigned[i]]
		for fi, w := range batch[i].Fields {
			val := Value{Kind: w.Kind, I: w.I, F: w.F, B: w.B, S: w.S, Bytes: w.Bytes}
			if w.Kind == KindRef {
				if w.Ref.ReceiverLocal {
					val.Ref = w.Ref.ID
				} else if j, in := slices.BinarySearch(senders, w.Ref.ID); in {
					val.Ref = assigned[j]
				} else {
					val.Ref = refStubLocked(v, peerIdx, w.Ref.ID, v.registry.Class(w.Ref.Class))
				}
			}
			o.Fields[fi] = val
		}
	}
	v.tm.migratedIn.Add(int64(len(assigned)))
	return assigned, nil
}

// refStubLocked is the reference's stub lookup-or-create, its class
// already checked.
func refStubLocked(v *VM, peerIdx int, peerID ObjectID, class *Class) ObjectID {
	if id, ok := v.imports.get(peerIdx, peerID); ok {
		return id
	}
	id := v.nextID
	v.nextID++
	v.objects[id] = &Object{ID: id, Class: class, Remote: true, PeerIdx: peerIdx, PeerID: peerID}
	v.imports.set(peerIdx, peerID, id)
	return id
}
