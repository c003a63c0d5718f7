package vm

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ErrSessionDrained marks remote operations refused because the hosting
// surrogate is draining: the session is being handed off to another
// surrogate. The remote module wraps its typed drain rejections around
// this sentinel so the VM can park the operation on the drain handler
// and retry once the peer slot has been re-pointed.
var ErrSessionDrained = errors.New("vm: session drained")

// SnapshotObject is one heap object's full state in a VM snapshot. IDs
// are the snapshotted VM's own namespace and are preserved exactly on
// restore, so references — including the peer's stubs into this VM —
// stay valid across a restore on a different host.
type SnapshotObject struct {
	ID    ObjectID
	Class string
	Size  int64

	// Stub state (Remote true): which peer slot hosts the object and its
	// ID in that VM's namespace.
	Remote     bool
	PeerIdx    int
	PeerID     ObjectID
	RemoteSize int64

	// Exported is the distributed-GC pin count the peer holds.
	Exported int64

	// Fields holds the instance slots. KindRef values reference the
	// snapshot's own ID namespace.
	Fields []Value
}

// SnapshotRoot is one named GC root.
type SnapshotRoot struct {
	Name string
	ID   ObjectID
}

// SnapshotStatic is one class's static slots.
type SnapshotStatic struct {
	Class  string
	Values []Value
}

// SnapshotState is a VM's complete heap and class state in deterministic
// order: objects ascending by ID, roots by name, statics by class name.
// Two exports of the same VM state are structurally identical, which is
// what lets the snapshot package pin a byte-identical encoding.
type SnapshotState struct {
	NextID  ObjectID
	Objects []SnapshotObject
	Roots   []SnapshotRoot
	Statics []SnapshotStatic
}

// copyValue deep-copies a Value so the snapshot shares no mutable memory
// with the live heap.
func copyValue(val Value) Value {
	if val.Bytes != nil {
		val.Bytes = append([]byte(nil), val.Bytes...)
	}
	return val
}

// ExportSnapshot captures the VM's heap, roots, and statics as a
// self-contained, deterministically ordered state. The export
// shares no mutable memory with the VM: mutating the VM afterwards never
// changes the snapshot (copy-on-write at the granularity of the export).
func (v *VM) ExportSnapshot() *SnapshotState {
	v.mu.Lock()
	defer v.mu.Unlock()

	s := &SnapshotState{NextID: v.nextID}

	ids := make([]ObjectID, 0, len(v.objects))
	for id := range v.objects {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	s.Objects = make([]SnapshotObject, 0, len(ids))
	for _, id := range ids {
		o := v.objects[id]
		so := SnapshotObject{
			ID:         o.ID,
			Class:      o.Class.Name,
			Size:       o.Size,
			Remote:     o.Remote,
			PeerIdx:    o.PeerIdx,
			PeerID:     o.PeerID,
			RemoteSize: o.RemoteSize,
			Exported:   o.exported,
		}
		if len(o.Fields) > 0 {
			so.Fields = make([]Value, len(o.Fields))
			for i, val := range o.Fields {
				so.Fields[i] = copyValue(val)
			}
		}
		s.Objects = append(s.Objects, so)
	}

	rootNames := make([]string, 0, len(v.roots))
	for name := range v.roots {
		rootNames = append(rootNames, name)
	}
	sort.Strings(rootNames)
	for _, name := range rootNames {
		s.Roots = append(s.Roots, SnapshotRoot{Name: name, ID: v.roots[name]})
	}

	classNames := make([]string, 0, len(v.statics))
	for name := range v.statics {
		classNames = append(classNames, name)
	}
	sort.Strings(classNames)
	for _, name := range classNames {
		slots := v.statics[name]
		ss := SnapshotStatic{Class: name, Values: make([]Value, len(slots))}
		for i, val := range slots {
			ss.Values[i] = copyValue(val)
		}
		s.Statics = append(s.Statics, ss)
	}
	return s
}

// ImportSnapshot replaces the VM's heap, roots, and statics with the
// snapshot's state, preserving object IDs exactly. Every class named by
// the snapshot must exist in this VM's registry, every reference — in
// object fields, roots, and statics — must resolve to an object in the
// image (images arrive over the wire, so a dangling reference is hostile
// input, not a tolerable glitch), and the restored live bytes must fit
// the heap; on error the VM is unchanged.
// Peer slots are NOT part of the snapshot — stubs keep their PeerIdx and
// resolve against whatever peers the receiving VM has attached, which is
// what lets a restored session VM keep serving the same client.
func (v *VM) ImportSnapshot(s *SnapshotState) error {
	objects := make(map[ObjectID]*Object, len(s.Objects))
	var imports importTable
	var live int64
	for i := range s.Objects {
		so := &s.Objects[i]
		class := v.registry.Class(so.Class)
		if class == nil {
			return fmt.Errorf("vm: restore #%d: unknown class %q", so.ID, so.Class)
		}
		if _, dup := objects[so.ID]; dup {
			return fmt.Errorf("vm: restore: duplicate object #%d", so.ID)
		}
		if so.ID >= s.NextID {
			return fmt.Errorf("vm: restore: object #%d not below next ID %d", so.ID, s.NextID)
		}
		if so.Remote && (so.PeerIdx < 0 || so.PeerIdx >= maxPeerSlots) {
			return fmt.Errorf("vm: restore stub #%d: peer slot %d out of range", so.ID, so.PeerIdx)
		}
		o := &Object{
			ID:         so.ID,
			Class:      class,
			Size:       so.Size,
			Remote:     so.Remote,
			PeerIdx:    so.PeerIdx,
			PeerID:     so.PeerID,
			RemoteSize: so.RemoteSize,
			exported:   so.Exported,
		}
		if !o.Remote {
			o.Fields = make([]Value, len(class.Fields))
			for fi := range o.Fields {
				if fi < len(so.Fields) {
					o.Fields[fi] = copyValue(so.Fields[fi])
				}
			}
			live += o.Size
		}
		objects[so.ID] = o
		if o.Remote {
			imports.set(o.PeerIdx, o.PeerID, o.ID)
		}
	}
	for _, o := range objects {
		for fi, val := range o.Fields {
			if val.Kind == KindRef && val.Ref != InvalidObject {
				if _, ok := objects[val.Ref]; !ok {
					return fmt.Errorf("vm: restore %s#%d field %d: dangling reference #%d",
						o.Class.Name, o.ID, fi, val.Ref)
				}
			}
		}
	}

	statics := make(map[string][]Value, len(s.Statics))
	for _, ss := range s.Statics {
		class := v.registry.Class(ss.Class)
		if class == nil {
			return fmt.Errorf("vm: restore statics: unknown class %q", ss.Class)
		}
		slots := make([]Value, len(class.StaticFields))
		for i := range slots {
			if i < len(ss.Values) {
				val := ss.Values[i]
				if val.Kind == KindRef && val.Ref != InvalidObject {
					if _, ok := objects[val.Ref]; !ok {
						return fmt.Errorf("vm: restore static %s slot %d: dangling reference #%d",
							ss.Class, i, val.Ref)
					}
				}
				slots[i] = copyValue(val)
			}
		}
		statics[ss.Class] = slots
	}

	roots := make(map[string]ObjectID, len(s.Roots))
	for _, r := range s.Roots {
		if _, ok := objects[r.ID]; !ok {
			return fmt.Errorf("vm: restore root %q: dangling reference #%d", r.Name, r.ID)
		}
		roots[r.Name] = r.ID
	}

	v.mu.Lock()
	defer v.mu.Unlock()
	if live > v.cfg.HeapCapacity {
		return fmt.Errorf("vm: restore needs %d bytes, heap capacity is %d: %w",
			live, v.cfg.HeapCapacity, ErrOutOfMemory)
	}
	v.objects = objects
	v.imports = imports
	v.statics = statics
	v.roots = roots
	v.nextID = s.NextID
	v.liveBytes = live
	v.garbageBytes = 0
	v.objsSinceGC = 0
	v.bytesSinceGC = 0
	return nil
}

// ReplacePeer atomically swaps the peer at an occupied slot, leaving
// every stub's PeerIdx valid: the live-handoff primitive. Unlike
// AttachPeer it never grows the table, and unlike DetachPeer it leaves
// no nil hole — in-flight operations that raced the swap retry against
// the replacement.
func (v *VM) ReplacePeer(idx int, p Peer) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if idx < 0 || idx >= len(v.peers) {
		return fmt.Errorf("vm: replace peer %d: %w", idx, ErrNotAttached)
	}
	v.peers[idx] = p
	return nil
}

// maxDrainRedirects bounds how many drained bounces a single operation
// will follow: each redirect means the hosting surrogate drained and the
// handler re-pointed the slot, so chains only occur when handoffs
// ping-pong under the call.
const maxDrainRedirects = 3

// SetDrainHandler installs the drain-redirect hook: when a remote
// operation is refused because the hosting surrogate is draining
// (ErrSessionDrained), the VM invokes the handler with the peer's index
// and the peer value the failed operation used and, if it reports
// success, retries the operation — by then the handler must have
// re-pointed the peer slot at the handoff destination (ReplacePeer).
// The used peer lets the handler tell a straggler of an already
// completed handoff (bounced by the replaced peer — retry immediately)
// from the first casualty of a new drain at the current home (park
// until that handoff lands). The handler runs without the VM lock held
// and must tolerate concurrent calls for the same peer.
func (v *VM) SetDrainHandler(f func(peerIdx int, used Peer) bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.drain = f
}

// drainIfRedirected reports whether the caller should retry an operation
// that failed with err: true when err shows the hosting surrogate is
// draining and the installed drain handler re-pointed the peer slot.
func (v *VM) drainIfRedirected(peerIdx int, used Peer, err error) bool {
	return v.consult(ErrSessionDrained, &v.drain, peerIdx, used, err)
}

// ReclaimStubsFrom is ReclaimStubs with a donor: every stub hosted by
// peerIdx re-materializes from the donor snapshot's object of the same
// peer-namespace ID instead of restarting zeroed. The donor is a clone
// of the vanished peer's heap (speculative execution keeps one), so its
// ID namespace is the peer's. Donor references are followed: a donor
// object with no stub here is copied in as a fresh local object, and a
// donor stub pointing back at this VM resolves to the local object it
// names. A stub the donor does not know re-materializes exactly like
// ReclaimStubs: zeroed.
// Returns the number of objects re-homed.
func (v *VM) ReclaimStubsFrom(peerIdx int, donor *SnapshotState) int {
	return v.reclaimStubs(peerIdx, donor)
}

// reclaimStubs is the one walk behind ReclaimStubs (nil donor) and
// ReclaimStubsFrom.
func (v *VM) reclaimStubs(peerIdx int, donor *SnapshotState) int {
	var byID map[ObjectID]*SnapshotObject
	if donor != nil {
		byID = make(map[ObjectID]*SnapshotObject, len(donor.Objects))
		for i := range donor.Objects {
			byID[donor.Objects[i].ID] = &donor.Objects[i]
		}
	}

	v.mu.Lock()
	defer v.mu.Unlock()

	// Pass 1: map every donor ID we will materialize to a local ID.
	// Existing stubs upgrade in place, reachable donor-only objects get
	// fresh local IDs, and donor stubs pointing back at us collapse to
	// the local objects they name (those keep their live local state —
	// the donor's copy of them is the stale one). fill lists the locals
	// whose fields come from the donor.
	toLocal := make(map[ObjectID]ObjectID)
	fill := make(map[ObjectID]ObjectID) // local ID -> donor ID
	var work []ObjectID
	n := 0
	for _, o := range v.objects {
		if !o.Remote || o.PeerIdx != peerIdx {
			continue
		}
		v.imports.drop(peerIdx, o.PeerID)
		toLocal[o.PeerID] = o.ID
		work = append(work, o.PeerID)
		o.Remote = false
		o.Size = o.RemoteSize
		if so, known := byID[o.PeerID]; known && !so.Remote {
			o.Size = so.Size
			fill[o.ID] = o.PeerID
		}
		o.PeerID = 0
		o.PeerIdx = 0
		o.RemoteSize = 0
		o.Fields = make([]Value, len(o.Class.Fields))
		v.liveBytes += o.Size
		n++
	}
	slices.Sort(work)
	for len(work) > 0 {
		donorID := work[0]
		work = work[1:]
		so, ok := byID[donorID]
		if !ok || so.Remote {
			continue
		}
		for _, val := range so.Fields {
			if val.Kind != KindRef || val.Ref == InvalidObject {
				continue
			}
			if _, seen := toLocal[val.Ref]; seen {
				continue
			}
			ref, ok := byID[val.Ref]
			if !ok {
				continue
			}
			if ref.Remote {
				// The donor's stub back into this VM: resolve to the local
				// object directly if it still exists.
				if _, live := v.objects[ref.PeerID]; live {
					toLocal[val.Ref] = ref.PeerID
				}
				continue
			}
			class := v.registry.Class(ref.Class)
			if class == nil {
				continue
			}
			id := v.nextID
			v.nextID++
			v.objects[id] = &Object{ID: id, Class: class, Size: ref.Size,
				Fields: make([]Value, len(class.Fields))}
			v.liveBytes += ref.Size
			toLocal[val.Ref] = id
			fill[id] = val.Ref
			work = append(work, val.Ref)
		}
	}

	// Pass 2: fill fields from the donor, rewriting references through
	// the map; unresolvable references zero out.
	for localID, donorID := range fill {
		o := v.objects[localID]
		so := byID[donorID]
		for fi := range o.Fields {
			if fi >= len(so.Fields) {
				break
			}
			val := copyValue(so.Fields[fi])
			if val.Kind == KindRef && val.Ref != InvalidObject {
				if mapped, ok := toLocal[val.Ref]; ok {
					val.Ref = mapped
				} else {
					val = Nil()
				}
			}
			o.Fields[fi] = val
		}
	}

	// Pins the vanished peer held can never be released now; drop them
	// when it was the only attached peer.
	sole := true
	for i, p := range v.peers {
		if i != peerIdx && p != nil {
			sole = false
			break
		}
	}
	if sole {
		for _, o := range v.objects {
			o.exported = 0
		}
	}
	v.tm.reclaimedStubs.Add(int64(n))
	return n
}
