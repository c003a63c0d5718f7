package vm

import (
	"encoding/binary"
	"fmt"
	"time"

	"aide/internal/telemetry"
	"aide/internal/trace"
	"aide/internal/wire"
)

// Migration is an outbound offload batch in its wire form, as
// ExtractMigration wrote it.
type Migration struct {
	// Batch is the batch's wire form (the remote codec's tagBatch
	// section): the object count, then per object its sender ID, class
	// name, size, field count and fields. References between migrated
	// objects are in the sender's namespace, to be re-linked by the
	// receiver; a reference to an object staying behind names its class,
	// so the receiver can type a stub for it; a reference to a stub of the
	// receiver's own object is in the receiver's namespace.
	Batch []byte
	// IDs lists the objects in batch order (ascending), for
	// ConvertToStubs.
	IDs []ObjectID
	// Bytes is the transfer charged to the network model: each object's
	// size plus 16 bytes of record overhead.
	Bytes int64
}

// ExtractMigration writes the live local objects of the named classes
// straight from the heap into a batch appended to dst, in ascending ID
// order, all under one hold of the VM lock. Every object staying behind
// that a migrated one references gains an export pin for the stub the
// receiver will make, and every migrated object one for the copy in
// flight, so no collection sweeps it before it becomes a stub — but only
// if the whole batch is written: a dangling reference fails the
// extraction and leaves no pin taken.
//
// The objects are not yet removed; call ConvertToStubs with the IDs the
// receiver assigned to complete the move (the stubs carry no pins), or
// ReleaseExport with Migration.IDs to call it off.
func (v *VM) ExtractMigration(dst []byte, classNames []string) (Migration, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	// An object is in the batch exactly when it is local and of a moving
	// class, so that also tells a reference into the batch from one to an
	// object staying behind.
	moving := make([]bool, len(v.registry.table.Classes))
	for _, n := range classNames {
		if c := v.registry.Class(n); c != nil {
			moving[c.ix] = true
		}
	}
	objs := make([]idObject, 0, len(v.objects))
	for id, o := range v.objects {
		if !o.Remote && moving[o.Class.ix] {
			objs = append(objs, idObject{id, o})
		}
	}
	if len(objs) == 0 {
		return Migration{Batch: dst}, nil
	}
	objs = sortByID(objs, make([]idObject, len(objs)))

	var err error
	var moved int64
	ids := make([]ObjectID, len(objs))
	buf := binary.AppendUvarint(dst, uint64(len(objs)))
	for bi, e := range objs {
		id, o := e.id, e.o
		ids[bi] = id
		o.exported++ // for the copy in flight
		moved += o.Size + 16
		buf = binary.AppendVarint(buf, int64(id))
		buf = wire.AppendString(buf, o.Class.Name)
		buf = binary.AppendVarint(buf, o.Size)
		buf = binary.AppendUvarint(buf, uint64(len(o.Fields)))
		for i := range o.Fields {
			val := &o.Fields[i]
			if val.Kind != KindRef {
				buf = appendScalar(buf, val.Kind, val.I, val.F, val.B, val.S, val.Bytes)
				continue
			}
			if val.Ref == InvalidObject {
				buf = append(buf, byte(KindNil))
				continue
			}
			ro, ok := v.objects[val.Ref]
			if !ok {
				if err == nil {
					err = fmt.Errorf("vm: migrate %s#%d field %d: %w", o.Class.Name, id, i, ErrNoSuchObject)
				}
				continue
			}
			if ro.Remote {
				// The receiver must be the stub's host; forwarding a
				// reference to a third VM is unsupported (paper §8).
				buf = binary.AppendVarint(append(buf, byte(KindRef), 1), int64(ro.PeerID))
				continue
			}
			if !moving[ro.Class.ix] {
				ro.exported++ // for the stub the receiver makes
			}
			buf = binary.AppendVarint(append(buf, byte(KindRef), 0), int64(val.Ref))
			buf = wire.AppendString(buf, ro.Class.Name)
		}
	}
	if err != nil {
		v.unpinLocked(objs, moving)
		return Migration{}, err
	}
	v.tm.migratedOut.Add(int64(len(ids)))
	return Migration{Batch: buf, IDs: ids, Bytes: moved}, nil
}

// unpinLocked undoes the pins a failed extraction of objs took: one on
// each of them, and one per reference from one of them to a local object
// of a class not moving.
func (v *VM) unpinLocked(objs []idObject, moving []bool) {
	for _, e := range objs {
		e.o.exported--
		for _, val := range e.o.Fields {
			if val.Kind != KindRef {
				continue
			}
			if ro, ok := v.objects[val.Ref]; ok && !ro.Remote && !moving[ro.Class.ix] {
				ro.exported--
			}
		}
	}
}

// idObject is an object and its ID, for sortByID.
type idObject struct {
	id ObjectID
	o  *Object
}

// sortByID sorts a by ID and returns it sorted, in a or in b, a scratch
// slice as long as a: a least-significant-digit radix sort on the IDs'
// offsets from the smallest, 8 bits a pass, as many passes as the span of
// IDs needs (two or three for a heap's, where sorting the IDs by
// comparison cost more than writing the batch).
func sortByID(a, b []idObject) []idObject {
	lo, hi := a[0].id, a[0].id
	for _, e := range a {
		lo, hi = min(lo, e.id), max(hi, e.id)
	}
	for shift := 0; shift < 64 && uint64(hi-lo)>>shift > 0; shift += 8 {
		var at [257]int
		for _, e := range a {
			at[int(uint8(uint64(e.id-lo)>>shift))+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for _, e := range a {
			d := uint8(uint64(e.id-lo) >> shift)
			b[at[d]] = e
			at[d]++
		}
		a, b = b, a
	}
	return a
}

// adoptee is one batch entry: its sender ID, class and size, the stub
// that stood for it (if any), and the object it became.
type adoptee struct {
	id    ObjectID
	class *Class
	size  int64
	stub  ObjectID
	o     *Object
}

// batchIndex finds a sender ID among a batch's in constant expected time,
// where a binary search over them cost a tenth of an adoption: the span of
// the batch's ascending IDs is cut into buckets of 1<<shift IDs, fewer
// buckets than objects, and first[k] is the index of the first object at
// or past bucket k.
type batchIndex struct {
	recs  []adoptee
	shift uint
	first []int32
}

func newBatchIndex(recs []adoptee) batchIndex {
	x := batchIndex{recs: recs}
	n, lo := len(recs), uint64(recs[0].id)
	span := uint64(recs[n-1].id) - lo
	for span>>x.shift >= uint64(n) {
		x.shift++
	}
	x.first = make([]int32, span>>x.shift+2)
	i := 0
	for k := range x.first {
		for i < n && (uint64(recs[i].id)-lo)>>x.shift < uint64(k) {
			i++
		}
		x.first[k] = int32(i)
	}
	return x
}

// find returns the index of the batch's object id, and whether there is
// one; a binary search within the bucket keeps a crowded one cheap.
func (x *batchIndex) find(id ObjectID) (int, bool) {
	if id < x.recs[0].id || id > x.recs[len(x.recs)-1].id {
		return 0, false
	}
	k := (uint64(id) - uint64(x.recs[0].id)) >> x.shift
	lo, hi := int(x.first[k]), int(x.first[k+1])
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); x.recs[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(x.recs) && x.recs[lo].id == id
}

// strayRef is a sender-namespace reference naming a class this VM does
// not have: harmless if it points into the batch, fatal otherwise.
type strayRef struct {
	id    ObjectID
	class []byte
}

// AdoptMigration installs a received offload batch — its wire form, as
// ExtractMigration wrote it — whose entries must be in ascending sender-ID
// order. If this VM already held a stub for an incoming object, the stub
// is upgraded in place to the real object, so existing local references
// stay valid. It returns the local ID assigned to each batch entry, in
// order.
//
// Every adopted object carries one export pin for the stub the sender
// keeps in its place; the sender's collector releases it when that stub
// dies. The batch is checked whole, from its bytes, before anything
// changes: a rejected batch leaves the heap and the import table as they
// were. The objects and their fields are then carved from slabs of the
// batch's exact totals and read straight from the bytes.
//
// Adopted KindBytes payloads are not copied: they alias batch, which the
// VM owns from the call on. The caller hands over a buffer of its own —
// the remote codec's decoded Message.Batch, copied once out of the frame —
// and must neither modify nor reuse it. It lives, whole, while any adopted
// payload does: one payload keeps every byte of the batch in Go's memory,
// past what the heap's accounting (each object's Size) counts.
func (v *VM) AdoptMigration(peerIdx int, batch []byte) ([]ObjectID, error) {
	if len(batch) == 0 {
		return nil, nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()

	// Pass 1: validate, and size the slabs.
	r := wire.NewReader(batch)
	n := r.Count()
	recs := make([]adoptee, n)
	var strays []strayRef
	var known []byte // the class name the last sender-namespace reference named, known here; nil before one
	var class *Class
	fields, fresh := 0, 0
	for i := range recs {
		id, name, size, k := ObjectID(r.Varint()), r.View(), r.Varint(), r.Count()
		if r.Err() != nil {
			break
		}
		if i > 0 && id <= recs[i-1].id {
			return nil, fmt.Errorf("vm: adopt %s#%d: batch not in ascending sender-ID order", name, id)
		}
		if class == nil || class.Name != string(name) {
			if class = v.registry.classes[string(name)]; class == nil {
				return nil, fmt.Errorf("vm: adopt %s: unknown class", name)
			}
		}
		if k > len(class.Fields) {
			return nil, fmt.Errorf("vm: adopt %s: field %d out of range", name, len(class.Fields))
		}
		stub, ok := v.imports.get(peerIdx, id)
		if !ok {
			fresh++
		}
		recs[i] = adoptee{id: id, class: class, size: size, stub: stub}
		fields += len(class.Fields)
		for ; k > 0; k-- {
			ref, cname, sender := skipValue(&r)
			if !sender || (known != nil && string(cname) == string(known)) {
				continue
			}
			if v.registry.classes[string(cname)] != nil {
				known = cname
			} else {
				strays = append(strays, strayRef{ref, cname})
			}
		}
	}
	if r.Len() > 0 {
		r.Fail(errTrailing)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("vm: adopt: %w", err)
	}
	if n == 0 {
		return []ObjectID{}, nil
	}
	index := newBatchIndex(recs)
	for _, s := range strays {
		if _, in := index.find(s.id); !in {
			return nil, errUnknownStubClass(string(s.class), s.id)
		}
	}

	// Pass 2: create or upgrade every object so cross-references within
	// the batch can be re-linked.
	assigned := make([]ObjectID, n)
	slab := make([]Value, fields)
	objs := make([]Object, fresh) // the objects no stub stood for
	for i := range recs {
		rec := &recs[i]
		var o *Object
		// counted: the object is coming home to a stub that kept its bytes
		// on the class's books (RemoteSize, debited when a stub dies), so
		// a second OnCreate would credit the class twice on every recall.
		counted := false
		if rec.stub != InvalidObject {
			o = v.objects[rec.stub]
			counted = o.RemoteSize > 0
			o.Remote = false
			o.PeerID = 0
			o.RemoteSize = 0
			v.imports.drop(peerIdx, rec.id)
		} else {
			o = &objs[0]
			objs = objs[1:]
			*o = Object{ID: v.nextID, Class: rec.class}
			v.nextID++
			v.objects[o.ID] = o
		}
		nf := len(rec.class.Fields)
		o.Size = rec.size
		o.Fields = slab[:nf:nf]
		slab = slab[nf:]
		o.exported++
		v.liveBytes += rec.size
		v.objsSinceGC++
		v.bytesSinceGC += rec.size
		rec.o = o
		assigned[i] = o.ID
		if !counted {
			v.emitLocked(trace.KindCreate, nil, rec.class, o.ID, rec.size, 0, false, false)
		}
	}

	// Pass 3: read the fields, re-linking intra-batch references and
	// creating stubs for references back to the sender.
	r = wire.NewReader(batch)
	r.Count()
	var stubClass *Class // the class of the last stub made or found
	for i := range recs {
		r.Varint()
		r.View()
		r.Varint()
		fs := recs[i].o.Fields[:r.Count()]
		for fi := range fs {
			val := &fs[fi] // zero: a KindNil field is already in place
			switch val.Kind = ValueKind(r.Byte()); val.Kind {
			case KindInt:
				val.I = r.Varint()
			case KindFloat:
				val.F = r.Float()
			case KindBool:
				val.B = r.Bool()
			case KindString:
				val.S = r.String()
			case KindBytes:
				val.Bytes = r.View()
			case KindRef:
				local, ref := r.Bool(), ObjectID(r.Varint())
				if local {
					val.Ref = ref
					continue
				}
				name := r.View()
				if j, in := index.find(ref); in {
					val.Ref = assigned[j]
					continue
				}
				if stubClass == nil || stubClass.Name != string(name) {
					stubClass = v.registry.classes[string(name)] // checked in pass 1
				}
				val.Ref = v.stubForLocked(peerIdx, ref, stubClass)
			}
		}
	}
	v.tm.migratedIn.Add(int64(n))
	return assigned, nil
}

// stubForLocked returns the local stub for the peer's object of the given
// class, creating it if this VM has none.
func (v *VM) stubForLocked(peerIdx int, peerID ObjectID, class *Class) ObjectID {
	if id, ok := v.imports.get(peerIdx, peerID); ok {
		return id
	}
	id := v.nextID
	v.nextID++
	v.objects[id] = &Object{ID: id, Class: class, Remote: true, PeerIdx: peerIdx, PeerID: peerID}
	v.imports.set(peerIdx, peerID, id)
	return id
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
