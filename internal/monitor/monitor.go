// Package monitor implements AIDE's execution and resource monitoring
// module (paper §3.4).
//
// It consumes the VM's instrumentation callbacks (method invocations, data
// field accesses, object creation and deletion, garbage-collection
// reports), aggregates object-level information to class level, and
// maintains the weighted execution graph that the partitioning module
// consumes. The same aggregation code also replays recorded traces, which
// is how the emulator drives the shared modules (paper §4).
//
// A class is resolved to its graph.NodeID once per source, not once per
// event: the by-name methods through a copy-on-write intern table, trace
// events through a per-trace binding indexed by trace.ClassID — each in its
// own order, because NodeIDs follow first sight and that order is part of
// every golden. A VM is such a source: it hands over its registry's class
// table with its events (vm.Hooks), so it is bound exactly like a
// recording. Both then call one by-ID core (invoke, access, lifecycle),
// the only code that accumulates. The monitor keeps no copy of the
// stream: a recording is apps.Record's tap on the VM's events, with no
// monitor attached.
//
// Ingestion adds into one delta (classes in a dense slice by ID, class
// pairs in a map keyed by the packed pair) behind one mutex, taken once
// per event fed and once per OnEvents slice. The delta merges into the base
// graph only when a snapshot is taken (Graph, Delta, Live, Flush), and the
// merge walks only what the window touched. The merged graph tracks a
// dirty set, and Delta hands the partitioner only what changed since its
// last pull.
//
// A replay feeds a monitor as a VM does, through OnEvents: at each
// partition, the window of its trace since the previous one.
package monitor

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"aide/internal/graph"
	"aide/internal/trace"
	"aide/internal/vm"
)

// ClassMeta is per-class metadata the monitor cannot observe from events
// alone.
type ClassMeta struct {
	// Pinned: the class cannot be offloaded (native methods).
	Pinned bool

	// Array: primitive-array pseudo-class.
	Array bool

	// Stateless: all native methods are stateless/idempotent.
	Stateless bool
}

// bits packs the metadata so that applying it is an OR.
func (c ClassMeta) bits() uint32 {
	var b uint32
	if c.Pinned {
		b |= 1
	}
	if c.Array {
		b |= 2
	}
	if c.Stateless {
		b |= 4
	}
	return b
}

// ClassMetaFunc supplies class metadata by name.
type ClassMetaFunc func(name string) ClassMeta

// GCListener receives garbage-collection resource reports (the trigger
// policies subscribe here).
type GCListener func(free, capacity int64, freed bool)

// counts is one delta's slice of the monitor's event totals, indexed by
// trace.EventKind (invoke to delete). Slot 0 is never read: it takes the
// adds that belong to an event counted elsewhere.
type counts [trace.KindDelete + 1]int64

func (c *counts) add(o counts) {
	for k := range c {
		c[k] += o[k]
	}
}

func (c counts) events() int64 {
	return c[trace.KindInvoke] + c[trace.KindAccess] + c[trace.KindCreate] + c[trace.KindDelete]
}

// delta is one window's accumulation, the monitor's ingest: per-class
// lifecycle deltas in a dense slice by NodeID (touched lists what the
// window wrote, so a merge walks only that), per-pair interaction deltas
// keyed by the pair packed into one word (A<<32 | B, A < B — the
// runtime's 64-bit map fast path), and the event-kind counters.
type delta struct {
	nodes   []nodeDelta
	touched []int32
	edges   map[uint64]*edgeDelta
	ctr     counts

	// lastKey/last cache the pair the previous interaction went to: calls
	// and accesses hit one pair in runs. 0 is no pair (A < B).
	lastKey uint64
	last    *edgeDelta
}

// nodeDelta accumulates one class's events since the last flush. mem is
// the net memory delta and peakRise the maximum prefix sum of the
// window's memory deltas, so the intra-window peak survives batching.
type nodeDelta struct {
	mem, live, total int64
	peakRise         int64
	cpu              time.Duration
	touched          bool
}

// edgeDelta accumulates one class pair's interactions since the last
// flush.
type edgeDelta struct {
	inv, acc, bytes int64
}

// noNode is "no class": the caller of an invocation that has none.
const noNode graph.NodeID = -1

// classTable is one immutable snapshot of the intern table. Snapshots
// share names: a reader indexes below its own length, appends write above.
type classTable struct {
	ids   map[string]graph.NodeID
	names []string // by NodeID
}

// traceBinding resolves one trace's dense ClassIDs to this monitor's
// NodeIDs. A slot holds NodeID+1, or 0 until the class is first seen;
// slots are atomic so that several goroutines can feed one trace.
type traceBinding struct {
	t     *trace.Trace
	nodes []atomic.Int32 // by trace.ClassID
}

// Monitor builds and maintains the execution graph. It implements
// vm.Hooks; install it with VM.SetHooks. All methods are safe for
// concurrent use.
//
// Never read a monitor (Graph, Delta, Live, Flush, Events, Counts) while
// holding a VM's lock: a read first delivers what every hooked VM has
// buffered, which takes that VM's lock. The lock order is VM lock, then
// createMu, then the ingest lock; m.mu, when a read holds it, comes before
// createMu.
type Monitor struct {
	meta ClassMetaFunc

	// Identity. classes and bindings are copy-on-write: an event reads
	// them with one atomic load and no lock; a first sighting (of a class
	// or a trace) republishes a copy under createMu. That makes a run's
	// interning O(classes²) — nothing at the 100-150 classes of a Table-1
	// application, and for a thousand classes half a million map slots
	// copied once, what a few thousand events cost.
	//
	// createMu also serializes ID assignment and guards what only first
	// sightings and flushes touch: applied (by NodeID, the metadata bits
	// applied or pending) and pendingMeta (the ones the graph lacks).
	classes     atomic.Pointer[classTable]
	bindings    atomic.Pointer[[]*traceBinding]
	createMu    sync.Mutex
	applied     []uint32
	pendingMeta map[graph.NodeID]uint32

	// in is the ingest delta: what events added since the last merge,
	// behind inMu. Feed and the by-name methods take inMu once per event,
	// OnEvents once per slice.
	inMu sync.Mutex
	in   delta

	// base accumulates the counters drained at flush (written under mu and
	// inMu); GC events bypass the delta (no class to add to), atomically.
	base counts
	gcs  atomic.Int64

	// GC listeners and the flushes of the hooked VMs: copy-on-write under
	// lmu. OnGC and a read load the slice pointer with one atomic read.
	listeners atomic.Pointer[[]GCListener]
	vmFlushes atomic.Pointer[[]func()]
	lmu       sync.Mutex

	// mu guards the merged base graph and flushing.
	mu sync.Mutex
	g  *graph.Graph
}

var _ vm.Hooks = (*Monitor)(nil)

// New returns a monitor. meta may be nil, in which case no class is
// considered pinned (the emulator supplies metadata from the trace's class
// table instead).
func New(meta ClassMetaFunc) *Monitor {
	m := &Monitor{
		meta:        meta,
		g:           graph.New(),
		pendingMeta: make(map[graph.NodeID]uint32),
		in:          delta{edges: make(map[uint64]*edgeDelta)},
	}
	m.classes.Store(&classTable{ids: map[string]graph.NodeID{}})
	m.bindings.Store(new([]*traceBinding))
	return m
}

// classID resolves a class name to its dense node ID, interning it on
// first sight.
func (m *Monitor) classID(name string) graph.NodeID {
	if id, ok := m.classes.Load().ids[name]; ok {
		return id
	}
	m.createMu.Lock()
	defer m.createMu.Unlock()
	old := m.classes.Load()
	if id, ok := old.ids[name]; ok {
		return id
	}
	id := graph.NodeID(len(old.names))
	m.applied = append(m.applied, 0)
	if m.meta != nil {
		m.flagLocked(id, m.meta(name).bits())
	}
	ids := maps.Clone(old.ids)
	ids[name] = id
	m.classes.Store(&classTable{ids: ids, names: append(old.names, name)})
	return id
}

// flagLocked ORs metadata bits into a class; the next flush hands the
// graph those it lacks. Caller holds createMu.
func (m *Monitor) flagLocked(id graph.NodeID, bits uint32) {
	if m.applied[id]|bits != m.applied[id] {
		m.applied[id] |= bits
		m.pendingMeta[id] |= bits
	}
}

// binding returns t's binding, sized to cover t's class table as it is
// now. A monitor is fed one trace, rarely two, so the list is scanned; it
// keeps every trace it was ever fed alive.
func (m *Monitor) binding(t *trace.Trace) *traceBinding {
	for _, b := range *m.bindings.Load() {
		if b.t == t && len(b.nodes) >= len(t.Classes) {
			return b
		}
	}
	return m.rebind(t)
}

// rebind publishes a binding sized to t's class table as it is now: on
// first sight of the trace, and again when the table has grown (a trace
// still being appended to, a class registered after a VM's first event).
// Resolved slots carry over; a store racing into the binding this replaces
// is lost, and that class simply resolves again.
func (m *Monitor) rebind(t *trace.Trace) *traceBinding {
	m.createMu.Lock()
	defer m.createMu.Unlock()
	nb := &traceBinding{t: t, nodes: make([]atomic.Int32, len(t.Classes))}
	next := []*traceBinding{nb}
	for _, b := range *m.bindings.Load() {
		if b.t != t {
			next = append(next, b)
			continue
		}
		for i := range nb.nodes[:min(len(nb.nodes), len(b.nodes))] {
			nb.nodes[i].Store(b.nodes[i].Load())
		}
	}
	m.bindings.Store(&next)
	return nb
}

// unbound reports whether id is in the table and not resolved yet: an
// event naming such a class may be a first sighting.
func (b *traceBinding) unbound(id trace.ClassID) bool {
	return uint32(id) < uint32(len(b.nodes)) && b.nodes[id].Load() == 0
}

// bound resolves a trace class through its binding: one atomic load once
// the class has been seen.
func (m *Monitor) bound(b *traceBinding, id trace.ClassID) graph.NodeID {
	if v := b.nodes[id].Load(); v != 0 {
		return graph.NodeID(v - 1)
	}
	return m.bindClass(b, id)
}

// bindClass is bound's first-sight path: it interns the class and applies
// the pinned/array/stateless flags of the trace's class table on top of
// whatever the node already carries. An id beyond the class table panics,
// as indexing the table always has.
func (m *Monitor) bindClass(b *traceBinding, id trace.ClassID) graph.NodeID {
	info := b.t.Classes[id]
	nid := m.classID(info.Name)
	m.createMu.Lock()
	m.flagLocked(nid, ClassMeta{Pinned: info.Pinned, Array: info.Array, Stateless: info.Stateless}.bits())
	m.createMu.Unlock()
	b.nodes[id].Store(int32(nid) + 1)
	return nid
}

// addNode adds into the class at index i, and bumps counter k.
func (d *delta) addNode(i graph.NodeID, mem, live, total int64, cpu time.Duration, k trace.EventKind) {
	if mem != 0 || live != 0 || total != 0 || cpu != 0 {
		if int(i) >= len(d.nodes) {
			d.nodes = append(d.nodes, make([]nodeDelta, int(i)+1-len(d.nodes))...)
		}
		n := &d.nodes[i]
		if !n.touched {
			n.touched = true
			d.touched = append(d.touched, int32(i))
		}
		n.mem += mem
		if n.mem > n.peakRise {
			n.peakRise = n.mem
		}
		n.live += live
		n.total += total
		n.cpu += cpu
	}
	d.ctr[k]++
}

// addEdge adds into the pair of classes a and b, and bumps counter k.
func (d *delta) addEdge(a, b graph.NodeID, inv, acc, bytes int64, k trace.EventKind) {
	if a > b {
		a, b = b, a
	}
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	e := d.last
	if key != d.lastKey {
		if e = d.edges[key]; e == nil {
			e = &edgeDelta{}
			d.edges[key] = e
		}
		d.lastKey, d.last = key, e
	}
	e.inv += inv
	e.acc += acc
	e.bytes += bytes
	d.ctr[k]++
}

// flushLocked merges the ingest delta, pending classes, and pending
// metadata upgrades into the base graph. Caller holds m.mu.
func (m *Monitor) flushLocked() {
	// createMu stays held to the end: a class first seen mid-flush would
	// have deltas before its node exists in the graph.
	m.createMu.Lock()
	defer m.createMu.Unlock()
	names := m.classes.Load().names
	for id := m.g.Len(); id < len(names); id++ {
		m.g.Intern(names[id])
	}
	for id, bits := range m.pendingMeta { // OR-merges commute; order irrelevant
		n := m.g.Node(id)
		n.Pinned = n.Pinned || bits&1 != 0
		n.Array = n.Array || bits&2 != 0
		n.Stateless = n.Stateless || bits&4 != 0
		m.g.MarkNodeDirty(id)
	}
	clear(m.pendingMeta)

	m.inMu.Lock()
	defer m.inMu.Unlock()
	d := &m.in
	for _, j := range d.touched {
		n := &d.nodes[j]
		m.g.AddNodeDelta(graph.NodeID(j), n.mem, n.live, n.total, n.peakRise, n.cpu)
		*n = nodeDelta{}
	}
	d.touched = d.touched[:0]
	m.base.add(d.ctr)
	d.ctr = counts{}
	for k, e := range d.edges {
		m.g.AddEdgeDelta(graph.NodeID(k>>32), graph.NodeID(uint32(k)), e.inv, e.acc, e.bytes)
	}
	clear(d.edges)
	d.lastKey, d.last = 0, nil
}

// Attach implements vm.Hooks: every read runs the flush of each VM the
// monitor is installed on before it looks.
func (m *Monitor) Attach(flush func()) {
	m.lmu.Lock()
	defer m.lmu.Unlock()
	next := []func(){flush}
	if old := m.vmFlushes.Load(); old != nil {
		next = append(next, *old...)
	}
	m.vmFlushes.Store(&next)
}

// syncVMs delivers what every hooked VM has buffered. Reads run it before
// they lock anything: a VM's flush takes the VM's lock.
func (m *Monitor) syncVMs() {
	if fs := m.vmFlushes.Load(); fs != nil {
		for _, f := range *fs {
			f()
		}
	}
}

// Flush merges the ingest delta into the base graph. Snapshot accessors
// flush implicitly; explicit flushes are for tests and callers that want
// Live to be current without taking a snapshot.
func (m *Monitor) Flush() {
	m.syncVMs()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
}

// Graph returns a snapshot (deep copy) of the execution graph, suitable
// for handing to the partitioning module while monitoring continues.
func (m *Monitor) Graph() *graph.Graph {
	m.syncVMs()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.g.Clone()
}

// Delta flushes and returns what changed since the given epoch — the
// O(changed edges) repartition path. Pass 0 on the first pull and the
// returned Epoch thereafter; an out-of-lineage epoch yields a Full
// resync. The delta holds value copies, safe to use while monitoring
// continues.
func (m *Monitor) Delta(since int64) graph.Delta {
	m.syncVMs()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.g.Delta(since)
}

// Live flushes and returns the live execution graph without copying.
// Callers must not mutate it and should hold no reference across further
// execution.
func (m *Monitor) Live() *graph.Graph {
	m.syncVMs()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.g
}

// liveCounts sums the drained totals with the ingest delta's undrained
// counters, after delivering what the VMs buffered.
func (m *Monitor) liveCounts() counts {
	m.syncVMs()
	m.inMu.Lock()
	defer m.inMu.Unlock()
	c := m.base
	c.add(m.in.ctr)
	return c
}

// Events reports the total number of events the monitor has consumed.
func (m *Monitor) Events() int64 {
	return m.liveCounts().events() + m.gcs.Load()
}

// Counts reports how many events of each kind the monitor has consumed.
func (m *Monitor) Counts() (invocations, accesses, creates, deletes, gcs int64) {
	c := m.liveCounts()
	return c[trace.KindInvoke], c[trace.KindAccess], c[trace.KindCreate], c[trace.KindDelete], m.gcs.Load()
}

// OnGCListener subscribes to garbage-collection resource reports.
func (m *Monitor) OnGCListener(f GCListener) {
	m.lmu.Lock()
	defer m.lmu.Unlock()
	old := m.listeners.Load()
	var next []GCListener
	if old != nil {
		next = make([]GCListener, len(*old), len(*old)+1)
		copy(next, *old)
	}
	next = append(next, f)
	m.listeners.Store(&next)
}

// OnInvoke accounts one invocation by class name: the entry for sources
// that name classes instead of indexing a class table (the repository
// benchmark, tests).
func (m *Monitor) OnInvoke(caller, callee, method string, obj vm.ObjectID, argBytes, retBytes int64, selfTime time.Duration, native, stateless bool) {
	cn, from := m.classID(callee), noNode
	if caller != "" && caller != callee {
		from = m.classID(caller)
	}
	m.inMu.Lock()
	m.invoke(from, cn, argBytes+retBytes, selfTime)
	m.inMu.Unlock()
}

// OnAccess accounts one data-field access by class name.
func (m *Monitor) OnAccess(from, to string, obj vm.ObjectID, bytes int64) {
	tn, fn := m.classID(to), noNode
	if from != "" && from != to {
		fn = m.classID(from)
	}
	m.inMu.Lock()
	m.access(fn, tn, bytes)
	m.inMu.Unlock()
}

// OnCreate accounts one object creation by class name.
func (m *Monitor) OnCreate(class string, obj vm.ObjectID, size int64) {
	id := m.classID(class)
	m.inMu.Lock()
	m.lifecycle(trace.KindCreate, id, size)
	m.inMu.Unlock()
}

// OnDelete accounts one object deletion by class name.
func (m *Monitor) OnDelete(class string, obj vm.ObjectID, size int64) {
	id := m.classID(class)
	m.inMu.Lock()
	m.lifecycle(trace.KindDelete, id, size)
	m.inMu.Unlock()
}

// Feed consumes one trace event, keyed against the trace's class table.
// The emulator uses this to drive the shared monitoring module from a
// recorded trace exactly as the prototype drives it live. A class the
// table leaves nameless is the class named "".
func (m *Monitor) Feed(t *trace.Trace, e *trace.Event) {
	if e.Kind == trace.KindGC {
		m.OnGC(e.Free, e.Capacity, e.Freed)
		return
	}
	from, to := m.ends(m.binding(t), e)
	m.inMu.Lock()
	m.feed(e, from, to)
	m.inMu.Unlock()
}

// OnEvents implements vm.Hooks: a VM's batch, keyed against its registry's
// class table, decoded as Feed decodes a recording. The binding is looked
// up once, first sightings are resolved before the ingest lock is taken
// (they take createMu, which a flush holds around that lock), and the
// whole batch then goes in under one acquisition. GC events in the slice
// are skipped, so that a window of a recording can be passed as it is: a
// collection reaches the monitor through OnGC.
func (m *Monitor) OnEvents(t *trace.Trace, evs []trace.Event) {
	b := m.binding(t)
	for i := range evs {
		if e := &evs[i]; b.unbound(e.Callee) || b.unbound(e.Caller) {
			m.ends(b, e)
		}
	}
	m.inMu.Lock()
	for i := range evs {
		from, to := m.ends(b, &evs[i])
		m.feed(&evs[i], from, to)
	}
	m.inMu.Unlock()
}

// ends resolves an event's classes through its trace's binding, interning
// first sightings in the order NodeIDs follow: an invocation's callee
// before its caller, an access's source before its target. from is noNode
// for an invocation whose Caller is outside the class table (no caller)
// and for a creation or deletion; both are for a GC event, which names no
// class.
func (m *Monitor) ends(b *traceBinding, e *trace.Event) (from, to graph.NodeID) {
	switch e.Kind {
	case trace.KindGC:
		return noNode, noNode
	case trace.KindInvoke:
		to, from = m.bound(b, e.Callee), noNode
		if e.Caller >= 0 && int(e.Caller) < len(b.t.Classes) {
			from = m.bound(b, e.Caller)
		}
	case trace.KindAccess:
		from = m.bound(b, e.Caller)
		to = m.bound(b, e.Callee)
	default:
		from, to = noNode, m.bound(b, e.Callee)
	}
	return from, to
}

// feed accumulates one trace event, its classes resolved by ends, into the
// ingest delta; a GC event adds nothing. Caller holds inMu.
func (m *Monitor) feed(e *trace.Event, from, to graph.NodeID) {
	switch e.Kind {
	case trace.KindInvoke:
		m.invoke(from, to, e.Bytes, e.SelfTime)
	case trace.KindAccess:
		m.access(from, to, e.Bytes)
	case trace.KindCreate, trace.KindDelete:
		m.lifecycle(e.Kind, to, e.Bytes)
	}
}

// invoke accounts one invocation of callee from class from (noNode: no
// caller) into the ingest delta: self time to the callee, the interaction
// to the pair. Caller holds inMu, as for access and lifecycle.
func (m *Monitor) invoke(from, callee graph.NodeID, bytes int64, selfTime time.Duration) {
	if from == noNode || from == callee {
		m.in.addNode(callee, 0, 0, 0, selfTime, trace.KindInvoke)
	} else {
		if selfTime != 0 {
			m.in.addNode(callee, 0, 0, 0, selfTime, 0) // counted with the edge
		}
		m.in.addEdge(from, callee, 1, 0, bytes, trace.KindInvoke)
	}
}

// access accounts one data-field access to class to from class from.
func (m *Monitor) access(from, to graph.NodeID, bytes int64) {
	if from == noNode || from == to {
		m.in.addNode(to, 0, 0, 0, 0, trace.KindAccess)
	} else {
		m.in.addEdge(from, to, 0, 1, bytes, trace.KindAccess)
	}
}

// lifecycle accounts the creation (k KindCreate) or deletion (KindDelete)
// of one object of the class.
func (m *Monitor) lifecycle(k trace.EventKind, id graph.NodeID, size int64) {
	if k == trace.KindCreate {
		m.in.addNode(id, size, 1, 1, 0, k)
	} else {
		m.in.addNode(id, -size, -1, 0, 0, k)
	}
}

// OnGC implements vm.Hooks: it counts one collection report and hands it
// to the listeners.
func (m *Monitor) OnGC(free, capacity int64, freed bool) {
	m.gcs.Add(1)
	if ls := m.listeners.Load(); ls != nil {
		for _, f := range *ls {
			f(free, capacity, freed)
		}
	}
}

// RegistryMeta adapts a VM class registry into a ClassMetaFunc: classes
// with native methods are pinned (paper §3.3).
func RegistryMeta(r *vm.Registry) ClassMetaFunc {
	return func(name string) ClassMeta {
		c := r.Class(name)
		if c == nil {
			return ClassMeta{}
		}
		return ClassMeta{
			Pinned:    c.Pinned(),
			Array:     c.Array,
			Stateless: c.NativeStateless(),
		}
	}
}
