package apps

import (
	"fmt"
	"sync"

	"aide/internal/trace"
	"aide/internal/vm"
)

// Record runs the application scenario to completion on a single,
// unconstrained VM and returns the execution trace its event stream
// carries — the paper's trace-acquisition procedure (§4: "The traces for
// an application were extracted from the prototype while running the
// application to completion on a single PC"). No monitor is attached: a
// tap keeps the VM's events as they arrive.
func Record(spec *Spec) (*trace.Trace, error) {
	reg, driver, err := spec.Build()
	if err != nil {
		return nil, fmt.Errorf("apps: build %s: %w", spec.Name, err)
	}
	v := vm.New(reg, vm.Config{
		Role:         vm.RoleClient,
		HeapCapacity: spec.RecordHeap,
		// Frequent cycles give the emulator a dense stream of object
		// deaths to replay.
		GCBytesTrigger: 512 << 10,
	})
	tp := &tap{}
	v.SetHooks(tp)
	th := v.NewThread()
	if err := driver(th); err != nil {
		return nil, fmt.Errorf("apps: run %s: %w", spec.Name, err)
	}
	// Flush remaining garbage so the trace carries final object deaths.
	v.Collect()
	tp.flush()
	t := tp.trace(spec.Name, spec.RecordHeap)
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("apps: %s produced an inconsistent trace: %w", spec.Name, err)
	}
	return t, nil
}

// tap is the vm.Hooks Record installs: it keeps every batch of events the
// VM delivers, keyed against the registry's class table, and one KindGC
// event per collection report, which the VM sends after the cycle's events.
// Record drives the VM from one goroutine, so OnEvents (under the VM lock)
// and OnGC (after it is released) never overlap and the tap takes no lock.
type tap struct {
	classes []trace.ClassInfo // the registry's, as of the latest batch
	evs     []trace.Event
	flush   func()
}

func (p *tap) OnEvents(t *trace.Trace, evs []trace.Event) {
	p.classes = t.Classes
	p.evs = append(p.evs, evs...)
}

func (p *tap) OnGC(free, capacity int64, freed bool) {
	p.evs = append(p.evs, trace.Event{Kind: trace.KindGC, Free: free, Capacity: capacity, Freed: freed})
}

func (p *tap) Attach(flush func()) { p.flush = flush }

// trace renumbers the kept events' classes into the order they are first
// seen, an invocation's or access's caller before its callee; a registered
// class no event names is left out. Creations and deletions name no caller,
// so their Caller is 0.
func (p *tap) trace(app string, heapCapacity int64) *trace.Trace {
	t := &trace.Trace{App: app, HeapCapacity: heapCapacity, Events: p.evs}
	ids := make([]trace.ClassID, len(p.classes)) // by registry index: new ClassID + 1, 0 if unseen
	class := func(c trace.ClassID) trace.ClassID {
		if ids[c] == 0 {
			t.Classes = append(t.Classes, p.classes[c])
			ids[c] = trace.ClassID(len(t.Classes))
		}
		return ids[c] - 1
	}
	for i := range t.Events {
		switch e := &t.Events[i]; e.Kind {
		case trace.KindInvoke, trace.KindAccess:
			e.Caller = class(e.Caller)
			e.Callee = class(e.Callee)
		case trace.KindCreate, trace.KindDelete:
			e.Caller, e.Callee = 0, class(e.Callee)
		}
	}
	return t
}

// Cache memoizes recorded traces by application name: trace extraction
// runs a full scenario through the VM, so experiments share one recording.
//
// Recording is per-entry singleflight: the cache's mutex guards only the
// entry map, never a Record call, so recordings of different applications
// proceed concurrently, concurrent Gets of the same application record
// exactly once, and Gets of an already-warm trace never contend.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
}

// cacheEntry is one application's recording flight.
type cacheEntry struct {
	once sync.Once
	t    *trace.Trace
	err  error
}

// NewCache returns an empty trace cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[string]*cacheEntry)}
}

// Get returns the cached trace for the spec, recording it on first use.
// Concurrent callers for the same spec share a single Record call; a
// failed recording is reported to every waiter of that flight and then
// forgotten, so a later Get retries.
func (c *Cache) Get(spec *Spec) (*trace.Trace, error) {
	c.mu.Lock()
	e, ok := c.entries[spec.Name]
	if !ok {
		e = &cacheEntry{}
		c.entries[spec.Name] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.t, e.err = Record(spec) })
	if e.err != nil {
		c.mu.Lock()
		if c.entries[spec.Name] == e {
			delete(c.entries, spec.Name)
		}
		c.mu.Unlock()
	}
	return e.t, e.err
}

// All returns the five study applications of Table 1.
func All() []*Spec {
	return []*Spec{JavaNote(), Dia(), Biomer(), Voxel(), Tracer()}
}

// ByName returns the named application spec.
func ByName(name string) (*Spec, error) {
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("apps: unknown application %q", name)
}
