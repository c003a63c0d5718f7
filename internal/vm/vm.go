package vm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"aide/internal/telemetry"
	"aide/internal/trace"
)

// Common VM errors.
var (
	// ErrOutOfMemory is returned when an allocation cannot be satisfied
	// even after garbage collection and (if installed) the memory-pressure
	// handler. The unmodified Chai VM fails here; AIDE's platform installs
	// a pressure handler that offloads instead (paper §5.1).
	ErrOutOfMemory = errors.New("vm: out of memory")

	// ErrNoSuchObject is returned for dangling or foreign references.
	ErrNoSuchObject = errors.New("vm: no such object")

	// ErrNoSuchMethod is returned when dispatch cannot resolve a method.
	ErrNoSuchMethod = errors.New("vm: no such method")

	// ErrNoSuchField is returned for unknown field slots.
	ErrNoSuchField = errors.New("vm: no such field")

	// ErrNotAttached is returned when remote execution is required but no
	// peer is attached.
	ErrNotAttached = errors.New("vm: no remote peer attached")

	// ErrPeerGone marks operations that failed because the hosting peer
	// disconnected involuntarily (transport death, timeout storm). The
	// remote module wraps its disconnect errors around this sentinel so
	// the VM can fail the operation over to local execution.
	ErrPeerGone = errors.New("vm: peer disconnected")
)

// Role distinguishes the client device VM from the surrogate server VM.
type Role int

// VM roles.
const (
	RoleClient Role = iota + 1
	RoleSurrogate
)

// String returns the role name.
func (r Role) String() string {
	switch r {
	case RoleClient:
		return "client"
	case RoleSurrogate:
		return "surrogate"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// Object is a VM heap object, or a stub placeholder for an object hosted by
// the peer VM (paper §3.2: "each JVM keeps stub local references for remote
// objects as a placeholder").
type Object struct {
	ID     ObjectID
	Class  *Class
	Fields []Value

	// Size is the heap memory the object occupies, fixed at creation.
	Size int64

	// Remote marks stubs. PeerIdx selects which attached peer hosts the
	// object and PeerID is its ID in that VM's namespace. RemoteSize
	// remembers the migrated object's heap size so that monitoring can
	// account for its release when the stub dies.
	Remote     bool
	PeerIdx    int
	PeerID     ObjectID
	RemoteSize int64

	// exported counts references the peer holds to this object; while
	// positive the object is a distributed-GC root.
	exported int64

	// lazyFrom/lazySrc remember where a lazily migrated object came from:
	// the peer index of the origin VM and the object's ID in that VM's
	// namespace (its residual-store key). Set when AdoptMigration installs
	// KindDeferred fields; the first access pulls the withheld values from
	// there (lazy.go).
	lazyFrom int
	lazySrc  ObjectID

	marked bool
}

// Peer is the remote-invocation module's interface as seen by the VM: the
// operations that cross to the other VM. The remote package implements it;
// tests may stub it.
//
// The args of InvokeRemote and InvokeNativeRemote are borrowed, as a
// Body's are: valid until the call returns. A peer that still reads them
// afterwards copies them first; remote.Peer encodes them before it sends.
type Peer interface {
	// InvokeRemote invokes method on the peer-namespace object, returning
	// the result, the simulated time the peer spent executing, and any
	// error.
	InvokeRemote(peerObj ObjectID, method string, args []Value) (Value, time.Duration, error)

	// GetFieldRemote and SetFieldRemote access a field of a peer object.
	GetFieldRemote(peerObj ObjectID, field string) (Value, error)
	SetFieldRemote(peerObj ObjectID, field string, v Value) error

	// GetStaticRemote and SetStaticRemote access static data, which lives
	// on the client VM (paper §3.2).
	GetStaticRemote(class, field string) (Value, error)
	SetStaticRemote(class, field string, v Value) error

	// InvokeNativeRemote directs a native method back to the client VM
	// (paper §3.2).
	InvokeNativeRemote(class, method string, peerSelf ObjectID, selfIsCallerLocal bool, args []Value) (Value, time.Duration, error)

	// Release tells the peer that this VM dropped its last stub reference
	// to the peer's object (distributed GC).
	Release(peerObj ObjectID)
}

// Config parametrizes a VM.
type Config struct {
	// Role is client or surrogate.
	Role Role

	// HeapCapacity is the Java-heap budget in bytes (the paper uses 6 MB
	// and 8 MB client heaps).
	HeapCapacity int64

	// CPUSpeed scales simulated work: a Thread.Work(d) advances the clock
	// by d/CPUSpeed. The paper's surrogate executes 3.5× faster than the
	// client. Zero defaults to 1.
	CPUSpeed float64

	// GC trigger thresholds, mirroring Chai's incremental mark-and-sweep,
	// which is "triggered by space limitations, the number of objects
	// created since the last collection, and the amount of memory occupied
	// by objects created since the last collection" (paper §5.1). Zeros
	// choose defaults.
	GCObjectTrigger int64
	GCBytesTrigger  int64

	// MonitorCostPerEvent is the simulated per-event cost of execution
	// monitoring, charged to the clock while Hooks are installed. The
	// prototype measured ≈11% wall overhead for JavaNote (paper §5.1).
	MonitorCostPerEvent time.Duration

	// Telemetry, when set, registers this VM's invocation/allocation/GC
	// counters plus heap gauges sampled at scrape time. Nil leaves every
	// instrument nil: hot-path updates reduce to nil-check no-ops.
	Telemetry *telemetry.Registry

	// Tracer, when set and enabled, receives gc and failover spans.
	Tracer *telemetry.Tracer
}

func (c Config) withDefaults() Config {
	if c.Role == 0 {
		c.Role = RoleClient
	}
	if c.CPUSpeed <= 0 {
		c.CPUSpeed = 1
	}
	if c.HeapCapacity <= 0 {
		c.HeapCapacity = 64 << 20
	}
	if c.GCObjectTrigger <= 0 {
		c.GCObjectTrigger = 512
	}
	if c.GCBytesTrigger <= 0 {
		c.GCBytesTrigger = c.HeapCapacity / 8
	}
	return c
}

// VM is one virtual machine instance. All exported methods are safe for
// concurrent use; remote calls release the VM lock while waiting so that
// the peer can call back in. Execution passes back and forth but the thread
// is not migrated: a callback that arrives while a thread waits on the peer
// runs on that thread's goroutine, on a service Thread of its own
// (ServeInvoke), so nesting costs stack; only migrations, snapshots and
// session control run on the peer's pool of threads (remote/recv.go).
type VM struct {
	cfg      Config
	registry *Registry

	mu      sync.Mutex
	objects map[ObjectID]*Object
	nextID  ObjectID

	// imports maps (peer, peer-namespace ID) to local stub IDs: this VM's
	// half of the object reference mappings the VMs maintain (paper §3.2).
	imports map[importKey]ObjectID

	// statics[class] holds the class's static slots; populated lazily on
	// the client VM only.
	statics map[string][]Value

	// roots are named global references (thread entry points, app state).
	roots map[string]ObjectID

	liveBytes      int64
	objsSinceGC    int64
	bytesSinceGC   int64
	garbageBytes   int64
	collections    int64
	lastGCFreedAny bool

	clock time.Duration

	hooks Hooks

	// events buffers monitoring events for hooks.OnEvents (emitLocked).
	events []trace.Event

	// fieldHooks caches hooks' optional FieldHooks extension (SetHooks
	// type-asserts once, so the per-access check is a nil compare).
	fieldHooks FieldHooks

	// fieldPredictor, when set, lets ExtractMigrationLazy withhold
	// predictor-cold fields; residuals holds the withheld values of
	// objects this VM lazily migrated away, keyed by local stub ID.
	fieldPredictor FieldPredictor
	residuals      map[ObjectID]*residual

	// peers are the attached remote-invocation modules. A client may
	// attach several surrogates (paper §2: "multiple surrogates could be
	// used by the client"); a surrogate attaches exactly one client at
	// peers[0].
	peers []Peer

	// pressure is consulted after a failed post-GC allocation; returning
	// true retries the allocation (the AIDE platform offloads here).
	pressure func(needed int64) bool

	// tm and tracer are the telemetry instruments, fixed at construction
	// (nil members when Config.Telemetry/Tracer are unset).
	tm     vmMetrics
	tracer *telemetry.Tracer

	// failover is consulted when a remote operation fails with
	// ErrPeerGone; returning true means the slot no longer holds the
	// failed peer (its objects were re-homed locally, or a handoff
	// replaced it) and the operation should be retried.
	failover func(peerIdx int, used Peer) bool

	// drain is consulted when a remote operation is refused with
	// ErrSessionDrained; returning true means the handler re-pointed the
	// peer slot at the handoff destination (ReplacePeer) and the
	// operation should be retried.
	drain func(peerIdx int, used Peer) bool

	// statelessLocal enables the §5.2 enhancement: stateless native
	// methods execute on the VM where they are invoked.
	statelessLocal bool

	// frames of the single logical application thread (the platform's
	// serial-execution assumption); used as GC roots.
	frames []*frame

	// framePool recycles popped frames (and their temps backing arrays):
	// every served invocation pushes one, so the RPC hot path would
	// otherwise allocate a frame, a temps slice, and a thread per call.
	framePool []*frame

	// rootTemps protects objects created or received outside any method
	// frame (top-level driver code) until ClearTemps is called, so a
	// collection triggered mid-construction cannot reclaim them.
	rootTemps []ObjectID
}

// New constructs a VM bound to a class registry.
func New(registry *Registry, cfg Config) *VM {
	v := &VM{
		cfg:      cfg.withDefaults(),
		registry: registry,
		objects:  make(map[ObjectID]*Object),
		nextID:   1,
		imports:  make(map[importKey]ObjectID),
		statics:  make(map[string][]Value),
		roots:    make(map[string]ObjectID),
		tm:       newVMMetrics(cfg.Telemetry),
		tracer:   cfg.Tracer,
	}
	if cfg.Telemetry != nil {
		registerHeapGauges(cfg.Telemetry, v)
	}
	return v
}

// Role returns the VM's role.
func (v *VM) Role() Role { return v.cfg.Role }

// Registry returns the shared class registry.
func (v *VM) Registry() *Registry { return v.registry }

// CPUSpeed returns the VM's configured relative CPU speed.
func (v *VM) CPUSpeed() float64 { return v.cfg.CPUSpeed }

// SetHooks installs (or removes, with nil) monitoring hooks, delivering
// what the VM has buffered to the hooks it replaces first. A Hooks value
// that also implements FieldHooks additionally receives per-field access
// callbacks (the lazy-migration heat signal) directly, never buffered.
func (v *VM) SetHooks(h Hooks) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.deliverLocked()
	v.hooks = h
	if fh, ok := h.(FieldHooks); ok {
		v.fieldHooks = fh
	} else {
		v.fieldHooks = nil
	}
	if h != nil {
		h.Attach(v.flushEvents)
	}
}

// eventBatch is how many events the VM buffers before delivering them.
// What monitoring adds to the JavaNote driver (2 cores, median of 9 runs,
// three rounds) is 74-92 ms at 64, 73-103 ms at 256 and 72-99 ms at 1024,
// against 190-198 ms delivering each event as it happens: past a few
// dozen the size is noise, and 256 keeps the buffer at 18 KiB.
const eventBatch = 256

// emitLocked buffers one monitoring event and charges its simulated cost,
// if hooks are installed. A class is its registry index; an event with no
// caller names the callee as its own caller ("self-sourced", as recordings
// write it), and an access counts only between two different classes,
// wherever the target lives. Called with v.mu held.
func (v *VM) emitLocked(k trace.EventKind, caller, callee *Class, obj ObjectID, bytes int64, self time.Duration, native, stateless bool) {
	if v.hooks == nil || (k == trace.KindAccess && caller == callee) {
		return
	}
	v.clock += v.cfg.MonitorCostPerEvent
	from := callee.ix
	if caller != nil {
		from = caller.ix
	}
	v.events = append(v.events, trace.Event{Kind: k, Caller: from, Callee: callee.ix,
		Obj: trace.ObjectID(obj), Bytes: bytes, SelfTime: self, Native: native, Stateless: stateless})
	if len(v.events) == eventBatch {
		v.deliverLocked()
	}
}

// deliverLocked hands the buffered events to the hooks. Called with v.mu
// held.
func (v *VM) deliverLocked() {
	if len(v.events) > 0 {
		v.hooks.OnEvents(&v.registry.table, v.events)
		v.events = v.events[:0]
	}
}

// flushEvents is the flush SetHooks hands the hooks.
func (v *VM) flushEvents() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.deliverLocked()
}

// importKey identifies a foreign object: which peer hosts it and its ID
// in that peer's namespace.
type importKey struct {
	peer int
	id   ObjectID
}

// AttachPeer connects the VM to a remote-invocation module and returns the
// peer's index, used to address it in stubs and wire translation.
func (v *VM) AttachPeer(p Peer) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.peers = append(v.peers, p)
	return len(v.peers) - 1
}

// peerAt returns the attached peer with the given index, or nil.
func (v *VM) peerAt(idx int) Peer {
	if idx < 0 || idx >= len(v.peers) {
		return nil
	}
	return v.peers[idx]
}

// DetachPeer removes the peer at idx from the peer table. The slot is
// kept (nil) so later peers retain their indices; stubs still pointing
// at the slot fail with ErrNotAttached until ReclaimStubs re-homes them.
func (v *VM) DetachPeer(idx int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if idx >= 0 && idx < len(v.peers) {
		v.peers[idx] = nil
	}
}

// SetFailoverHandler installs the disconnect-failover hook: when a remote
// operation fails because its hosting peer is gone (ErrPeerGone), the VM
// invokes the handler with the peer's index and the peer value the
// failed operation used (nil when the slot was already detached) and, if
// it reports success, retries the operation — by then the handler must
// have re-homed that peer's objects locally (DetachPeer + ReclaimStubs),
// or found the slot holding a different, live peer (a handoff replaced
// the one that died) and left it alone, so the retry lands on the
// replacement. The handler runs without the VM lock held and must be
// idempotent: concurrent failed calls may each invoke it for one peer.
func (v *VM) SetFailoverHandler(f func(peerIdx int, used Peer) bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.failover = f
}

// failoverIfGone reports whether the caller should retry an operation
// that failed with err: true when err shows the hosting peer vanished
// and the installed failover handler dealt with it.
func (v *VM) failoverIfGone(peerIdx int, used Peer, err error) bool {
	return v.consult(ErrPeerGone, &v.failover, peerIdx, used, err)
}

// consult asks *hook, if one is installed and err is the condition it
// handles, whether the operation that failed with err on peerIdx through
// used should be retried. Called without v.mu held.
func (v *VM) consult(condition error, hook *func(int, Peer) bool, peerIdx int, used Peer, err error) bool {
	if err == nil || !errors.Is(err, condition) {
		return false
	}
	v.mu.Lock()
	f := *hook
	v.mu.Unlock()
	return f != nil && f(peerIdx, used)
}

// peerSlotErr classifies a missing peer for a remote stub: a slot inside
// the table that once held a peer (DetachPeer nils it in place) means the
// peer disconnected — ErrPeerGone, eligible for disconnect failover —
// while an index beyond the table means no peer was ever attached.
func (v *VM) peerSlotErr(idx int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if idx >= 0 && idx < len(v.peers) {
		return ErrPeerGone
	}
	return ErrNotAttached
}

// SetPressureHandler installs the memory-pressure handler consulted after a
// failed post-GC allocation.
func (v *VM) SetPressureHandler(f func(needed int64) bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.pressure = f
}

// SetStatelessNativeLocal toggles the §5.2 stateless-native enhancement.
func (v *VM) SetStatelessNativeLocal(on bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.statelessLocal = on
}

// Clock returns the VM's simulated clock.
func (v *VM) Clock() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.clock
}

// AdvanceClock adds simulated time (e.g. network costs charged by the
// remote runtime).
func (v *VM) AdvanceClock(d time.Duration) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.clock += d
}

// HeapStats reports heap occupancy.
type HeapStats struct {
	Capacity    int64
	Live        int64
	Garbage     int64
	Free        int64
	Collections int64
	Objects     int64
}

// Heap returns current heap statistics.
func (v *VM) Heap() HeapStats {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.heapLocked()
}

func (v *VM) heapLocked() HeapStats {
	return HeapStats{
		Capacity:    v.cfg.HeapCapacity,
		Live:        v.liveBytes,
		Garbage:     v.garbageBytes,
		Free:        v.cfg.HeapCapacity - v.liveBytes - v.garbageBytes,
		Collections: v.collections,
		Objects:     int64(len(v.objects)),
	}
}

// SetRoot names an object as a global GC root (pass InvalidObject to
// clear).
func (v *VM) SetRoot(name string, id ObjectID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if id == InvalidObject {
		delete(v.roots, name)
		return
	}
	v.roots[name] = id
}

// Root returns a named root.
func (v *VM) Root(name string) (ObjectID, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	id, ok := v.roots[name]
	return id, ok
}

// Object returns the object record for diagnostics and migration. It
// returns nil for unknown IDs.
func (v *VM) Object(id ObjectID) *Object {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.objects[id]
}

// ObjectsOfClass returns the IDs of live, locally hosted (non-stub) objects
// of the named class, in ascending ID order.
func (v *VM) ObjectsOfClass(name string) []ObjectID {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []ObjectID
	for id, o := range v.objects {
		if !o.Remote && o.Class.Name == name {
			out = append(out, id)
		}
	}
	sortObjectIDs(out)
	return out
}

func sortObjectIDs(ids []ObjectID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
