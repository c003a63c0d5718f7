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
// Ingestion is striped: events land in per-shard delta maps (classes by
// ID, class pairs by pair hash) behind independent mutexes, with a
// lock-free interner resolving class names, so concurrent event sources
// never serialize on one global lock. Shard deltas merge into the base
// graph only when a snapshot is taken (Graph, Delta, Live, Flush) —
// integer merges commute, so the result is independent of shard order and
// bit-identical to serial ingestion. The merged graph tracks a dirty set,
// and Delta hands the partitioner only what changed since its last pull.
package monitor

import (
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

// bits packs the metadata for the lock-free flag fast path.
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

// stripes is the ingestion stripe count: a power of two so the shard
// pick is a mask, and sized so 8–16 concurrent event sources rarely
// collide. Measured on 2 cores against one stripe (EXPERIMENTS.md): even
// with 1 source, 1.3× with 2, 1.2× with 8 — so it is a constant, not an
// option.
const stripes = 16

// Option configures a Monitor at construction.
type Option func(*Monitor)

// WithDecay enables streaming exponential decay of edge interaction
// weights with the given half-life measured in consumed events (the
// monitor's deterministic event-time clock). Stale interactions then age
// out of HotWeight-based partitioning decisions instead of accumulating
// forever. Decay advances at flush granularity: every event in one flush
// window carries the window-end timestamp, which keeps replays
// bit-identical regardless of ingestion interleaving.
func WithDecay(halfLifeEvents float64) Option {
	return func(m *Monitor) { m.halfLife = halfLifeEvents }
}

// nodeShard stripes per-class lifecycle deltas. The event-kind counters
// live here too, bumped under the shard mutex the event already takes —
// a single shared atomic counter would put every stripe back on one
// cache line and cap throughput at its ping-pong rate.
type nodeShard struct {
	mu    sync.Mutex
	nodes map[graph.NodeID]*nodeDelta
	ctr   counts
	_     [32]byte // keep neighboring shard mutexes off one cache line
}

// counts is the per-shard slice of the monitor's event-kind totals.
type counts struct {
	events, inv, acc, creates, deletes int64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.inv += o.inv
	c.acc += o.acc
	c.creates += o.creates
	c.deletes += o.deletes
}

// nodeDelta accumulates one class's events since the last flush. mem is
// the net memory delta and peakRise the maximum prefix sum of the
// window's memory deltas, so the intra-window peak survives batching.
type nodeDelta struct {
	mem, live, total int64
	peakRise         int64
	cpu              time.Duration
}

// edgeShard stripes per-class-pair interaction deltas. Cross-class
// events bump their kind counters here, under the one shard mutex the
// event already takes, so the hot path costs a single lock round.
type edgeShard struct {
	mu    sync.Mutex
	edges map[graph.EdgeKey]*edgeDelta
	ctr   counts
	_     [32]byte
}

// edgeDelta accumulates one class pair's interactions since the last
// flush.
type edgeDelta struct {
	inv, acc, bytes int64
}

// pendingClass is a class interned since the last flush, in ID order.
type pendingClass struct {
	id   graph.NodeID
	name string
	meta ClassMeta
}

// Monitor builds and maintains the execution graph. It implements
// vm.Hooks; install it with VM.SetHooks. All methods are safe for
// concurrent use.
type Monitor struct {
	meta ClassMetaFunc

	// Lock-free interner: names maps class name → graph.NodeID, flags
	// maps NodeID → *atomic.Uint32 of applied metadata bits. createMu
	// serializes ID assignment; metaMu guards the pending flag-upgrade
	// set applied at the next flush.
	names    sync.Map // string → graph.NodeID
	flags    sync.Map // graph.NodeID → *atomic.Uint32
	createMu sync.Mutex
	pending  []pendingClass
	nextID   graph.NodeID

	metaMu      sync.Mutex
	pendingMeta map[graph.NodeID]uint32

	shardMask  uint32
	nodeShards []nodeShard
	edgeShards []edgeShard

	// base accumulates shard counters drained at flush (guarded by mu);
	// GC events bypass the shards (no class to stripe by) and stay
	// atomic — they are orders of magnitude rarer than the rest.
	base counts
	gcs  atomic.Int64

	// GC listeners: copy-on-write. OnGC loads the slice pointer with one
	// atomic read — no per-event copy, no lock on the event path.
	listeners atomic.Pointer[[]GCListener]
	lmu       sync.Mutex

	// Recorder mirror: recOn gates the slow path with one atomic load.
	recMu sync.Mutex
	rec   *Recorder
	recOn atomic.Bool

	// fieldHeat counts accesses per (class, field) — the signal the lazy
	// state-transfer predictor reads. sync.Map of *atomic.Int64 keeps
	// field reads/writes off every mutex (lazy-migration heat tracking
	// rides the VM's hottest path).
	fieldHeat sync.Map // fieldKey → *atomic.Int64

	// mu guards the merged base graph and flushing.
	mu       sync.Mutex
	g        *graph.Graph
	halfLife float64
}

// fieldKey identifies one instance field for the heat table.
type fieldKey struct {
	class, field string
}

var (
	_ vm.Hooks      = (*Monitor)(nil)
	_ vm.FieldHooks = (*Monitor)(nil)
)

// New returns a monitor. meta may be nil, in which case no class is
// considered pinned (the emulator supplies metadata from the trace's class
// table instead).
func New(meta ClassMetaFunc, opts ...Option) *Monitor {
	return newStriped(meta, stripes, opts...)
}

// newStriped is New with n stripes, n a power of two; the stripe tests
// use it to check that ingestion is independent of the stripe count.
func newStriped(meta ClassMetaFunc, n int, opts ...Option) *Monitor {
	m := &Monitor{
		meta:        meta,
		g:           graph.New(),
		pendingMeta: make(map[graph.NodeID]uint32),
		shardMask:   uint32(n - 1),
		nodeShards:  make([]nodeShard, n),
		edgeShards:  make([]edgeShard, n),
	}
	for _, o := range opts {
		o(m)
	}
	for i := 0; i < n; i++ {
		m.nodeShards[i].nodes = make(map[graph.NodeID]*nodeDelta)
		m.edgeShards[i].edges = make(map[graph.EdgeKey]*edgeDelta)
	}
	if m.halfLife > 0 {
		m.g.SetDecay(m.halfLife)
	}
	return m
}

// classID resolves a class name to its dense node ID, interning it on
// first sight. The hit path is one lock-free map load.
func (m *Monitor) classID(name string) graph.NodeID {
	if v, ok := m.names.Load(name); ok {
		return v.(graph.NodeID)
	}
	m.createMu.Lock()
	defer m.createMu.Unlock()
	if v, ok := m.names.Load(name); ok {
		return v.(graph.NodeID)
	}
	id := m.nextID
	m.nextID++
	var info ClassMeta
	if m.meta != nil {
		info = m.meta(name)
	}
	m.pending = append(m.pending, pendingClass{id: id, name: name, meta: info})
	fb := new(atomic.Uint32)
	fb.Store(info.bits())
	m.flags.Store(id, fb)
	m.names.Store(name, id)
	return id
}

func (m *Monitor) nodeShard(id graph.NodeID) *nodeShard {
	return &m.nodeShards[uint32(id)&m.shardMask]
}

func (m *Monitor) edgeShard(k graph.EdgeKey) *edgeShard {
	// Fibonacci-style mix of the canonical pair; any fixed function
	// works — determinism comes from commutative merges, not placement.
	h := uint32(k.A)*0x9E3779B1 ^ uint32(k.B)*0x85EBCA77
	return &m.edgeShards[(h^(h>>16))&m.shardMask]
}

func (s *nodeShard) add(id graph.NodeID, mem, live, total int64, cpu time.Duration, c counts) {
	s.mu.Lock()
	if mem != 0 || live != 0 || total != 0 || cpu != 0 {
		d := s.nodes[id]
		if d == nil {
			d = &nodeDelta{}
			s.nodes[id] = d
		}
		d.mem += mem
		if d.mem > d.peakRise {
			d.peakRise = d.mem
		}
		d.live += live
		d.total += total
		d.cpu += cpu
	}
	s.ctr.add(c)
	s.mu.Unlock()
}

func (s *edgeShard) add(k graph.EdgeKey, inv, acc, bytes int64, c counts) {
	s.mu.Lock()
	d := s.edges[k]
	if d == nil {
		d = &edgeDelta{}
		s.edges[k] = d
	}
	d.inv += inv
	d.acc += acc
	d.bytes += bytes
	s.ctr.add(c)
	s.mu.Unlock()
}

// record runs f against the attached recorder, if any. The recorder
// serializes on its own mutex so striped ingestion stays contention-free
// when recording is off (the common case).
func (m *Monitor) record(f func(r *Recorder)) {
	if !m.recOn.Load() {
		return
	}
	m.recMu.Lock()
	if m.rec != nil {
		f(m.rec)
	}
	m.recMu.Unlock()
}

// flushLocked merges every shard's deltas, pending classes, and pending
// metadata upgrades into the base graph. Caller holds m.mu. Integer
// merges commute and each class/pair lives in exactly one shard, so the
// merged graph is independent of shard iteration order.
func (m *Monitor) flushLocked() {
	// createMu stays held to the end: a class first seen mid-flush would
	// have deltas in a shard before its node exists in the graph.
	m.createMu.Lock()
	defer m.createMu.Unlock()
	pend := m.pending
	m.pending = nil
	for i := range pend {
		pc := &pend[i]
		n := m.g.Intern(pc.name)
		n.Pinned = pc.meta.Pinned
		n.Array = pc.meta.Array
		n.Stateless = pc.meta.Stateless
	}

	m.metaMu.Lock()
	pm := m.pendingMeta
	m.pendingMeta = make(map[graph.NodeID]uint32)
	m.metaMu.Unlock()
	for id, bits := range pm { // OR-merges commute; order irrelevant
		if n := m.g.Node(id); n != nil {
			n.Pinned = n.Pinned || bits&1 != 0
			n.Array = n.Array || bits&2 != 0
			n.Stateless = n.Stateless || bits&4 != 0
			m.g.MarkNodeDirty(id)
		}
	}

	for i := range m.nodeShards {
		s := &m.nodeShards[i]
		s.mu.Lock()
		for id, d := range s.nodes {
			m.g.AddNodeDelta(id, d.mem, d.live, d.total, d.peakRise, d.cpu)
		}
		clear(s.nodes)
		m.base.add(s.ctr)
		s.ctr = counts{}
		s.mu.Unlock()
	}

	// Drain edge-shard counters first so the clock covers every event in
	// this window, then advance event-time, then merge interactions:
	// every edge touched in the window decays from the window-end
	// timestamp.
	for i := range m.edgeShards {
		s := &m.edgeShards[i]
		s.mu.Lock()
		m.base.add(s.ctr)
		s.ctr = counts{}
		s.mu.Unlock()
	}
	m.g.AdvanceClock(float64(m.base.events + m.gcs.Load()))
	for i := range m.edgeShards {
		s := &m.edgeShards[i]
		s.mu.Lock()
		for k, d := range s.edges {
			m.g.AddEdgeDelta(k.A, k.B, d.inv, d.acc, d.bytes)
		}
		clear(s.edges)
		s.mu.Unlock()
	}
}

// Flush merges buffered shard deltas into the base graph. Snapshot
// accessors flush implicitly; explicit flushes are for tests and callers
// that want Live to be current without taking a snapshot.
func (m *Monitor) Flush() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
}

// Graph returns a snapshot (deep copy) of the execution graph, suitable
// for handing to the partitioning module while monitoring continues.
func (m *Monitor) Graph() *graph.Graph {
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
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.g.Delta(since)
}

// Live flushes and returns the live execution graph without copying.
// Callers must not mutate it and should hold no reference across further
// execution.
func (m *Monitor) Live() *graph.Graph {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushLocked()
	return m.g
}

// liveCounts sums the drained totals with every shard's undrained
// counters. Caller holds m.mu.
func (m *Monitor) liveCounts() counts {
	c := m.base
	for i := range m.nodeShards {
		s := &m.nodeShards[i]
		s.mu.Lock()
		c.add(s.ctr)
		s.mu.Unlock()
	}
	for i := range m.edgeShards {
		s := &m.edgeShards[i]
		s.mu.Lock()
		c.add(s.ctr)
		s.mu.Unlock()
	}
	return c
}

// Events reports the monitor's event-time clock: the total number of
// events consumed (the decay half-life is measured in these units).
func (m *Monitor) Events() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.liveCounts().events + m.gcs.Load()
}

// Counts reports how many events of each kind the monitor has consumed.
func (m *Monitor) Counts() (invocations, accesses, creates, deletes, gcs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.liveCounts()
	return c.inv, c.acc, c.creates, c.deletes, m.gcs.Load()
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

// SetRecorder attaches a trace recorder that mirrors every event (nil
// detaches).
func (m *Monitor) SetRecorder(r *Recorder) {
	m.recMu.Lock()
	m.rec = r
	m.recMu.Unlock()
	m.recOn.Store(r != nil)
}

// OnInvoke implements vm.Hooks.
func (m *Monitor) OnInvoke(caller, callee, method string, obj vm.ObjectID, argBytes, retBytes int64, selfTime time.Duration, native, stateless bool) {
	cn := m.classID(callee)
	cross := caller != "" && caller != callee
	if selfTime != 0 || !cross {
		c := counts{}
		if !cross {
			c = counts{events: 1, inv: 1}
		}
		m.nodeShard(cn).add(cn, 0, 0, 0, selfTime, c)
	}
	if cross {
		from := m.classID(caller)
		k := graph.EdgeKey{A: from, B: cn}
		if k.A > k.B {
			k.A, k.B = k.B, k.A
		}
		m.edgeShard(k).add(k, 1, 0, argBytes+retBytes, counts{events: 1, inv: 1})
	}
	m.record(func(r *Recorder) {
		r.invoke(caller, callee, obj, argBytes+retBytes, selfTime, native, stateless)
	})
}

// OnAccess implements vm.Hooks.
func (m *Monitor) OnAccess(from, to string, obj vm.ObjectID, bytes int64) {
	tn := m.classID(to)
	if from != "" && from != to {
		fn := m.classID(from)
		k := graph.EdgeKey{A: fn, B: tn}
		if k.A > k.B {
			k.A, k.B = k.B, k.A
		}
		m.edgeShard(k).add(k, 0, 1, bytes, counts{events: 1, acc: 1})
	} else {
		m.nodeShard(tn).add(tn, 0, 0, 0, 0, counts{events: 1, acc: 1})
	}
	m.record(func(r *Recorder) { r.access(from, to, obj, bytes) })
}

// OnCreate implements vm.Hooks.
func (m *Monitor) OnCreate(class string, obj vm.ObjectID, size int64) {
	id := m.classID(class)
	m.nodeShard(id).add(id, size, 1, 1, 0, counts{events: 1, creates: 1})
	m.record(func(r *Recorder) { r.create(class, obj, size) })
}

// OnDelete implements vm.Hooks.
func (m *Monitor) OnDelete(class string, obj vm.ObjectID, size int64) {
	id := m.classID(class)
	m.nodeShard(id).add(id, -size, -1, 0, 0, counts{events: 1, deletes: 1})
	m.record(func(r *Recorder) { r.delete(class, obj, size) })
}

// OnGC implements vm.Hooks.
func (m *Monitor) OnGC(free, capacity int64, freed bool) {
	m.gcs.Add(1)
	m.record(func(r *Recorder) { r.gc(free, capacity, freed) })
	if ls := m.listeners.Load(); ls != nil {
		for _, f := range *ls {
			f(free, capacity, freed)
		}
	}
}

// OnFieldAccess implements vm.FieldHooks: it heats the (class, field)
// entry every instance-field read or write touches. The counter is a
// lock-free atomic — heat tracking stays off the contention path.
func (m *Monitor) OnFieldAccess(class, field string, bytes int64) {
	k := fieldKey{class: class, field: field}
	if v, ok := m.fieldHeat.Load(k); ok {
		v.(*atomic.Int64).Add(1)
		return
	}
	v, _ := m.fieldHeat.LoadOrStore(k, new(atomic.Int64))
	v.(*atomic.Int64).Add(1)
}

// FieldHeat reports how many accesses the monitor has seen for one field
// (diagnostics and tests).
func (m *Monitor) FieldHeat(class, field string) int64 {
	if v, ok := m.fieldHeat.Load(fieldKey{class: class, field: field}); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// FieldPredictor derives a lazy-migration predictor from the heat table:
// a field is hot (ship eagerly) once it has at least minAccesses recorded
// accesses; colder fields stay behind for on-demand pull. minAccesses < 1
// defaults to 1 — any observed access makes the field hot. The predictor
// reads the live table, so heat accumulated after installation counts.
func (m *Monitor) FieldPredictor(minAccesses int64) vm.FieldPredictor {
	if minAccesses < 1 {
		minAccesses = 1
	}
	return func(class, field string) bool {
		return m.FieldHeat(class, field) >= minAccesses
	}
}

// Feed consumes one trace event, keyed against the trace's class table.
// The emulator uses this to drive the shared monitoring module from a
// recorded trace exactly as the prototype drives it live.
func (m *Monitor) Feed(t *trace.Trace, e *trace.Event) {
	switch e.Kind {
	case trace.KindInvoke:
		caller := ""
		if e.Caller >= 0 && int(e.Caller) < len(t.Classes) {
			caller = t.Classes[e.Caller].Name
		}
		callee := t.Classes[e.Callee].Name
		m.ensureMeta(t, e.Callee)
		if e.Caller >= 0 {
			m.ensureMeta(t, e.Caller)
		}
		m.OnInvoke(caller, callee, "", vm.ObjectID(e.Obj), e.Bytes, 0, e.SelfTime, e.Native, e.Stateless)
	case trace.KindAccess:
		m.ensureMeta(t, e.Caller)
		m.ensureMeta(t, e.Callee)
		m.OnAccess(t.Classes[e.Caller].Name, t.Classes[e.Callee].Name, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindCreate:
		m.ensureMeta(t, e.Callee)
		m.OnCreate(t.Classes[e.Callee].Name, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindDelete:
		m.ensureMeta(t, e.Callee)
		m.OnDelete(t.Classes[e.Callee].Name, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindGC:
		m.OnGC(e.Free, e.Capacity, e.Freed)
	}
}

// ensureMeta pins/flags the node from the trace class table before the
// generic hook interns it without metadata. The hit path — flags already
// applied — is two lock-free loads and one atomic read.
func (m *Monitor) ensureMeta(t *trace.Trace, id trace.ClassID) {
	info := t.Class(id)
	if info.Name == "" {
		return
	}
	want := ClassMeta{Pinned: info.Pinned, Array: info.Array, Stateless: info.Stateless}.bits()
	nid := m.classID(info.Name)
	v, ok := m.flags.Load(nid)
	if !ok {
		return // unreachable: classID registers flags before publishing
	}
	fb := v.(*atomic.Uint32)
	for {
		cur := fb.Load()
		if cur|want == cur {
			return // already applied (or pending): nothing to upgrade
		}
		if fb.CompareAndSwap(cur, cur|want) {
			break
		}
	}
	m.metaMu.Lock()
	m.pendingMeta[nid] |= want
	m.metaMu.Unlock()
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
