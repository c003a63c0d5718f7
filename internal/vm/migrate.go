package vm

import (
	"fmt"
	"slices"
	"time"

	"aide/internal/telemetry"
	"aide/internal/trace"
)

// MigratedObject is one object in an offload batch: the serialized form in
// which selected objects move from the client to the surrogate (or back).
type MigratedObject struct {
	// SenderID is the object's ID in the sender's namespace.
	SenderID ObjectID
	Class    string
	Size     int64
	Fields   []WireValue
}

// ExtractMigration serializes the live local objects of the named classes
// for offloading, in ascending ID order. References between migrated
// objects are encoded in the sender's namespace and re-linked by the
// receiver; references to objects staying behind become exports (the
// receiver will hold stubs).
//
// The objects are not yet removed; call ConvertToStubs with the IDs the
// receiver assigned to complete the move. One walk of the heap finds the
// batch; every object's Fields is carved from one slab of the batch's
// exact field total.
func (v *VM) ExtractMigration(classNames []string) ([]MigratedObject, error) {
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

	batch := make([]MigratedObject, len(ids))
	slab := make([]WireValue, fields)
	for bi, id := range ids {
		o := v.objects[id]
		m := &batch[bi]
		*m = MigratedObject{SenderID: id, Class: o.Class.Name, Size: o.Size, Fields: slab[:len(o.Fields):len(o.Fields)]}
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
				// The receiver must be the stub's host; forwarding a
				// reference to a third VM is unsupported (paper §8).
				w.Ref = WireRef{ReceiverLocal: true, ID: ro.PeerID}
				continue
			}
			if _, in := slices.BinarySearch(ids, val.Ref); !in {
				ro.exported++ // for the stub the receiver makes
			}
			// An in-batch reference is re-linked by the receiver to the
			// migrated copy.
			w.Ref = WireRef{ReceiverLocal: false, ID: val.Ref, Class: ro.Class.Name}
		}
	}
	v.mu.Unlock()
	v.tm.migratedOut.Add(int64(len(batch)))
	return batch, nil
}

// MigrationWireBytes returns the approximate on-the-wire size of the
// batch, used to charge the offload transfer to the network model.
func MigrationWireBytes(batch []MigratedObject) int64 {
	var n int64
	for i := range batch {
		n += batch[i].Size + 16 // payload plus per-object record overhead
	}
	return n
}

// AdoptMigration installs a received offload batch, whose entries must be
// in ascending sender-ID order (ExtractMigration's). If this VM already
// held a stub for an incoming object, the stub is upgraded in place to the
// real object, so existing local references stay valid. It returns the
// local ID assigned to each batch entry, in order.
//
// Every adopted object carries one export pin for the stub the sender
// keeps in its place; the sender's collector releases it when that stub
// dies. The batch is checked whole before anything changes: a rejected
// batch leaves the heap and the import table as they were.
func (v *VM) AdoptMigration(peerIdx int, batch []MigratedObject) ([]ObjectID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()

	// Pass 1: validate, and size the slabs.
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

	// Pass 2: create or upgrade every object so cross-references within
	// the batch can be re-linked.
	assigned := make([]ObjectID, len(batch))
	slab := make([]Value, fields)
	objs := make([]Object, fresh) // the objects no stub stood for
	for i := range batch {
		m, class := &batch[i], classes[i]
		var o *Object
		// counted: the object is coming home to a stub that kept its bytes
		// on the class's books (RemoteSize, debited when a stub dies), so
		// a second OnCreate would credit the class twice on every recall.
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

	// Pass 3: decode fields, re-linking intra-batch references and
	// creating stubs for references back to the sender.
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
					val.Ref, _ = v.stubForLocked(peerIdx, w.Ref.ID, w.Ref.Class) // class checked in pass 1
				}
			}
			o.Fields[fi] = val
		}
	}
	v.tm.migratedIn.Add(int64(len(assigned)))
	return assigned, nil
}

func (v *VM) stubForLocked(peerIdx int, peerID ObjectID, className string) (ObjectID, error) {
	class := v.registry.Class(className)
	if class == nil {
		return InvalidObject, fmt.Errorf("vm: stub for %s#%d: unknown class", className, peerID)
	}
	if id, ok := v.imports.get(peerIdx, peerID); ok {
		return id, nil
	}
	id := v.nextID
	v.nextID++
	v.objects[id] = &Object{ID: id, Class: class, Remote: true, PeerIdx: peerIdx, PeerID: peerID}
	v.imports.set(peerIdx, peerID, id)
	return id, nil
}

// ConvertToStubs completes a migration on the sender: each object becomes
// a stub pointing at the peer ID the receiver assigned, and its heap
// memory is freed. ids and peerIDs correspond positionally.
func (v *VM) ConvertToStubs(peerIdx int, ids, peerIDs []ObjectID) error {
	if len(ids) != len(peerIDs) {
		return fmt.Errorf("vm: convert to stubs: %d ids but %d peer ids", len(ids), len(peerIDs))
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, id := range ids {
		o, ok := v.objects[id]
		if !ok {
			return fmt.Errorf("vm: convert #%d: %w", id, ErrNoSuchObject)
		}
		if o.Remote {
			return fmt.Errorf("vm: convert #%d: already a stub", id)
		}
		v.liveBytes -= o.Size
		o.RemoteSize = o.Size
		o.Size = 0
		o.Fields = nil
		o.Remote = true
		o.PeerIdx = peerIdx
		o.PeerID = peerIDs[i]
		o.exported = 0
		v.imports.set(peerIdx, peerIDs[i], id)
	}
	return nil
}

// ReclaimStubs re-materializes every stub hosted by the given peer as a
// fresh local object: the fallback half of the migrate path, run when a
// surrogate vanishes (paper §2: the client must keep running without the
// surrogate). The remote copies are unrecoverable, so each object
// restarts from zeroed fields with its remembered size; existing local
// references stay valid because the stub upgrades in place, exactly like
// AdoptMigration's stub upgrade. Pins the vanished peer held on local
// objects are dropped when it was the only attached peer (they could
// never be released now); with other peers still attached the pins are
// left in place — a leak, never a corruption. Returns the number of
// objects reclaimed.
func (v *VM) ReclaimStubs(peerIdx int) int {
	n := v.reclaimStubs(peerIdx, nil)
	if v.tracer.Enabled() {
		v.tracer.Emit(telemetry.Span{Kind: telemetry.SpanFailover, Note: "reclaim_stubs", Peer: peerIdx, N: int64(n)})
	}
	return n
}

// Service entry points: the RPC worker pool calls these to execute requests
// on behalf of the peer VM. The time spent serving is measured and rolled
// back from this VM's clock — it is charged to the requesting VM via the
// returned elapsed duration, so that serial execution time is counted
// exactly once (paper §4's serial-execution assumption).

// ServeInvoke executes a peer-requested method invocation on a local
// object.
func (v *VM) ServeInvoke(localID ObjectID, method string, args []Value) (Value, time.Duration, error) {
	mark := v.ClockMark()
	t := v.NewThread()
	ret, err := t.Invoke(localID, method, args...)
	elapsed := v.ClockRewind(mark)
	if err != nil {
		return Nil(), 0, err
	}
	return ret, elapsed, nil
}

// ClockMark snapshots the virtual clock so a service bracket can later
// rewind it. ClockRewind returns the time accrued since the mark and
// resets the clock to it — the accrued time is charged to the requesting
// VM instead, so serial execution time is counted exactly once. The pair
// lets a pipelined frame bracket all of its calls with one mark/rewind
// rather than two lock acquisitions per call.
func (v *VM) ClockMark() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.clock
}

// ClockRewind returns the virtual time accrued since mark and resets the
// clock to mark (see ClockMark).
func (v *VM) ClockRewind(mark time.Duration) time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	elapsed := v.clock - mark
	v.clock = mark
	return elapsed
}

// ServeNative executes a native method directed back to this (client) VM.
func (v *VM) ServeNative(className, method string, self ObjectID, args []Value) (Value, time.Duration, error) {
	v.mu.Lock()
	start := v.clock
	v.mu.Unlock()
	t := v.NewThread()
	var ret Value
	var err error
	if self != InvalidObject {
		ret, err = t.Invoke(self, method, args...)
	} else {
		ret, err = t.InvokeStatic(className, method, args...)
	}
	v.mu.Lock()
	elapsed := v.clock - start
	v.clock = start
	v.mu.Unlock()
	if err != nil {
		return Nil(), 0, err
	}
	return ret, elapsed, nil
}

// ServeGetField reads a local object's field for the peer.
func (v *VM) ServeGetField(localID ObjectID, field string) (Value, error) {
	t := v.NewThread()
	return t.GetField(localID, field)
}

// ServeSetField writes a local object's field for the peer.
func (v *VM) ServeSetField(localID ObjectID, field string, val Value) error {
	t := v.NewThread()
	return t.SetField(localID, field, val)
}

// ServeGetStatic reads static data for the peer (this VM must be the
// client).
func (v *VM) ServeGetStatic(className, field string) (Value, error) {
	t := v.NewThread()
	return t.GetStatic(className, field)
}

// ServeSetStatic writes static data for the peer.
func (v *VM) ServeSetStatic(className, field string, val Value) error {
	t := v.NewThread()
	return t.SetStatic(className, field, val)
}
