package vm

import (
	"slices"

	"aide/internal/telemetry"
	"aide/internal/trace"
)

// Heap management and the mark-and-sweep collector.
//
// Chai (and hence the prototype) uses an incremental mark-and-sweep
// algorithm that is triggered by space limitations, the number of objects
// created since the last collection, and the amount of memory occupied by
// objects created since the last collection; this causes the collector to
// perform at least a partial sweep often, producing frequent memory usage
// updates (paper §5.1). This VM reproduces the trigger structure and the
// post-cycle reporting with a stop-the-world mark-and-sweep: deleted
// objects accrue as garbage between cycles and are reclaimed (and reported
// to monitoring) when a cycle runs.

func (v *VM) allocLocked(class *Class, size int64) (*Object, error) {
	if size < 0 {
		size = 0
	}
	if v.liveBytes+v.garbageBytes+size > v.cfg.HeapCapacity {
		v.collectLocked()
	}
	if v.liveBytes+size > v.cfg.HeapCapacity {
		// The collector could not make room. Consult the memory-pressure
		// handler (the AIDE platform offloads here); the unmodified VM
		// path fails with an out-of-memory error.
		if v.pressure != nil {
			h := v.pressure
			needed := v.liveBytes + size - v.cfg.HeapCapacity
			// The handler partitions and offloads, which re-enters the VM;
			// release the lock for the duration.
			v.mu.Unlock()
			retry := h(needed)
			v.mu.Lock()
			if retry {
				v.collectLocked()
			}
		}
		if v.liveBytes+size > v.cfg.HeapCapacity {
			return nil, ErrOutOfMemory
		}
	}

	id := v.nextID
	v.nextID++
	o := &Object{
		ID:     id,
		Class:  class,
		Fields: make([]Value, len(class.Fields)),
		Size:   size,
	}
	v.objects[id] = o
	v.liveBytes += size
	v.objsSinceGC++
	v.bytesSinceGC += size
	v.tm.objectsCreated.Inc()
	v.tm.allocBytes.Add(size)
	// Protect the newborn before any threshold collection can see it.
	v.addTempLocked(id)
	v.emitLocked(trace.KindCreate, nil, class, id, size, 0, false, false)

	if v.objsSinceGC >= v.cfg.GCObjectTrigger || v.bytesSinceGC >= v.cfg.GCBytesTrigger {
		v.collectLocked()
	}
	return o, nil
}

// Collect runs a full garbage-collection cycle.
func (v *VM) Collect() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.collectLocked()
}

// collectLocked marks from roots and sweeps unmarked, non-exported local
// objects and unreferenced stubs. Stub collection notifies the peer so it
// can decrement its export count (the "simple distributed garbage
// collection scheme" of paper §4).
func (v *VM) collectLocked() {
	before := v.liveBytes
	garbageBefore := v.garbageBytes

	var stack []ObjectID
	for id, o := range v.objects {
		// Clear every mark but a pinned object's: the peer holds it
		// (a distributed-GC root).
		o.marked = o.exported > 0
		if o.marked {
			stack = append(stack, id)
		}
	}
	push := func(id ObjectID) {
		if o, ok := v.objects[id]; ok && !o.marked {
			o.marked = true
			stack = append(stack, id)
		}
	}
	for _, id := range v.roots {
		push(id)
	}
	for _, slots := range v.statics {
		for _, val := range slots {
			if val.Kind == KindRef {
				push(val.Ref)
			}
		}
	}
	for _, f := range v.frames {
		for _, id := range f.temps {
			push(id)
		}
	}
	for _, id := range v.rootTemps {
		push(id)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		o := v.objects[id]
		if o == nil || o.Remote {
			continue // stubs hold no outgoing local references
		}
		for _, val := range o.Fields {
			if val.Kind == KindRef {
				push(val.Ref)
			}
		}
	}

	// Sweep in ID order so that monitoring (and hence recorded traces) is
	// deterministic run to run.
	var dead []ObjectID
	for id, o := range v.objects {
		if !o.marked {
			dead = append(dead, id)
		}
	}
	slices.Sort(dead)
	// released[peer] lists the peer's objects whose last stub died here.
	var released [][]ObjectID
	for _, id := range dead {
		o := v.objects[id]
		if o.Remote {
			if o.PeerIdx >= 0 && o.PeerIdx < len(v.peers) {
				for len(released) <= o.PeerIdx {
					released = append(released, nil)
				}
				released[o.PeerIdx] = append(released[o.PeerIdx], o.PeerID)
			}
			v.imports.drop(o.PeerIdx, o.PeerID)
			delete(v.objects, id)
			// The migrated object is now releasable on the peer; tell
			// monitoring so class memory accounting follows the release.
			if o.RemoteSize > 0 {
				v.emitLocked(trace.KindDelete, nil, o.Class, id, o.RemoteSize, 0, false, false)
			}
			continue
		}
		v.liveBytes -= o.Size
		delete(v.objects, id)
		v.emitLocked(trace.KindDelete, nil, o.Class, id, o.Size, 0, false, false)
	}

	v.garbageBytes = 0
	v.objsSinceGC = 0
	v.bytesSinceGC = 0
	v.collections++
	v.tm.gcCycles.Inc()
	reclaimed := (before - v.liveBytes) + garbageBefore
	if reclaimed > 0 {
		v.tm.gcReclaimed.Add(reclaimed)
	}
	if v.tracer.Enabled() {
		v.tracer.Emit(telemetry.Span{Kind: telemetry.SpanGC, N: int64(len(dead)), Bytes: reclaimed})
	}
	freed := v.liveBytes < before || garbageBefore > 0
	v.lastGCFreedAny = freed
	free := v.cfg.HeapCapacity - v.liveBytes
	hooks := v.hooks
	peers := append([]Peer(nil), v.peers...)
	if hooks != nil {
		// The report sees every event before it.
		v.deliverLocked()
		v.clock += v.cfg.MonitorCostPerEvent
	}
	if hooks != nil || len(released) > 0 {
		// Emit the resource report and distributed-GC releases without
		// the VM lock held: GC listeners may partition and offload, which
		// re-enters the VM (the adaptive platform's trigger path). Each
		// peer gets its released IDs in one call, in its ID order.
		v.mu.Unlock()
		if hooks != nil {
			hooks.OnGC(free, v.cfg.HeapCapacity, freed)
		}
		for idx, ids := range released {
			if len(ids) > 0 && peers[idx] != nil {
				slices.Sort(ids)
				peers[idx].Release(ids...)
			}
		}
		v.mu.Lock()
	}
}

// FreeObject explicitly discards a live object: it becomes garbage
// reclaimed at the next cycle. Application code uses this to model
// deterministic deaths; reachability-based collection handles everything
// else.
func (v *VM) FreeObject(id ObjectID) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	o, ok := v.objects[id]
	if !ok {
		return ErrNoSuchObject
	}
	if o.Remote {
		// Dropping a stub: release the peer reference immediately and
		// account for the migrated object's memory leaving the platform.
		delete(v.objects, id)
		v.imports.drop(o.PeerIdx, o.PeerID)
		if o.RemoteSize > 0 {
			v.emitLocked(trace.KindDelete, nil, o.Class, id, o.RemoteSize, 0, false, false)
		}
		peer := v.peerAt(o.PeerIdx)
		if peer != nil {
			v.mu.Unlock()
			peer.Release(o.PeerID)
			v.mu.Lock()
		}
		return nil
	}
	delete(v.objects, id)
	v.liveBytes -= o.Size
	v.garbageBytes += o.Size
	v.emitLocked(trace.KindDelete, nil, o.Class, id, o.Size, 0, false, false)
	return nil
}
