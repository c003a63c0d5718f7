// Package trace defines AIDE's execution and resource traces.
//
// The paper's emulator replaces the Chai VM with a wrapper that plays back
// execution and resource traces into the monitoring, partitioning, and
// remote-invocation modules (paper §4). A trace records, per the
// instrumentation of §3.4, method invocations, data-field accesses, object
// creations and deletions, and garbage-collection reports, all at object
// level for aggregation to class level.
package trace

import (
	"fmt"
	"time"
)

// ClassID indexes a trace's class table.
type ClassID int32

// ObjectID identifies an object within a trace. IDs are unique for the
// lifetime of the trace (they are never reused after deletion).
type ObjectID int64

// NoObject marks events with no target object (e.g. static invocations).
const NoObject ObjectID = -1

// EventKind discriminates trace events.
type EventKind uint8

// Event kinds, mirroring the JVM augmentation points of paper §3.4: method
// invocations, data field accesses, object creation, object deletion, plus
// garbage-collector resource reports.
const (
	KindInvoke EventKind = iota + 1
	KindAccess
	KindCreate
	KindDelete
	KindGC
)

// String returns the kind's name.
func (k EventKind) String() string {
	switch k {
	case KindInvoke:
		return "invoke"
	case KindAccess:
		return "access"
	case KindCreate:
		return "create"
	case KindDelete:
		return "delete"
	case KindGC:
		return "gc"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// ClassInfo describes one class in a trace.
type ClassInfo struct {
	Name string

	// Pinned marks classes that cannot be offloaded: classes with native
	// methods or host-specific static data (paper §3.2).
	Pinned bool

	// Array marks primitive-array pseudo-classes, eligible for the §5.2
	// object-granularity placement enhancement.
	Array bool

	// Stateless marks pinned classes whose native methods are all
	// stateless/idempotent (math, string copy): their invocations execute
	// locally under the §5.2 native enhancement.
	Stateless bool
}

// Event is one execution or resource event. A single struct with a Kind
// discriminator keeps traces flat and allocation-light: one fixed-shape
// record per event on disk (io.go) and in memory.
type Event struct {
	Kind EventKind

	// Caller and Callee identify the interacting classes for invoke and
	// access events; Callee alone identifies the class for create/delete.
	Caller ClassID
	Callee ClassID

	// Obj is the target object of an invoke/access, or the created/deleted
	// object. NoObject when not applicable.
	Obj ObjectID

	// Bytes is the information transferred by an interaction (parameters
	// and return values), or the object size for create/delete.
	Bytes int64

	// SelfTime is the execution time attributable to the callee for this
	// invocation, exclusive of nested calls (paper Figure 9), measured at
	// client CPU speed.
	SelfTime time.Duration

	// Native marks invocations that resolve to a native method.
	Native bool

	// Stateless marks native invocations that are stateless/idempotent
	// (string copy, math functions), which the §5.2 enhancement may execute
	// on the device where they are invoked.
	Stateless bool

	// Free and Capacity report heap state for GC events; Freed reports
	// whether the cycle reclaimed anything.
	Free     int64
	Capacity int64
	Freed    bool
}

// Trace is a recorded application execution.
type Trace struct {
	// App names the recorded application (e.g. "JavaNote").
	App string

	// HeapCapacity is the Java heap size, in bytes, under which the trace
	// was recorded.
	HeapCapacity int64

	// Classes is the class table; ClassIDs index it.
	Classes []ClassInfo

	// Events is the serial event stream. Distributed execution of a trace
	// is assumed equivalent to serial execution (paper §4).
	Events []Event
}

// Validate checks internal consistency: class references in range, sizes
// non-negative, deletes matching live creates.
func (t *Trace) Validate() error {
	n := ClassID(len(t.Classes))
	live := make(map[ObjectID]ClassID)
	for i := range t.Events {
		e := &t.Events[i]
		switch e.Kind {
		case KindInvoke, KindAccess:
			if e.Caller < 0 || e.Caller >= n || e.Callee < 0 || e.Callee >= n {
				return fmt.Errorf("trace: event %d (%s) references class out of range", i, e.Kind)
			}
			if e.Bytes < 0 {
				return fmt.Errorf("trace: event %d has negative bytes", i)
			}
		case KindCreate:
			if e.Callee < 0 || e.Callee >= n {
				return fmt.Errorf("trace: event %d creates class out of range", i)
			}
			if e.Bytes < 0 {
				return fmt.Errorf("trace: event %d creates negative size", i)
			}
			if _, ok := live[e.Obj]; ok {
				return fmt.Errorf("trace: event %d re-creates live object %d", i, e.Obj)
			}
			live[e.Obj] = e.Callee
		case KindDelete:
			cls, ok := live[e.Obj]
			if !ok {
				return fmt.Errorf("trace: event %d deletes unknown object %d", i, e.Obj)
			}
			if cls != e.Callee {
				return fmt.Errorf("trace: event %d deletes object %d with class %d, created as %d", i, e.Obj, e.Callee, cls)
			}
			delete(live, e.Obj)
		case KindGC:
			if e.Capacity < 0 || e.Free < 0 {
				return fmt.Errorf("trace: event %d has negative GC figures", i)
			}
		default:
			return fmt.Errorf("trace: event %d has unknown kind %d", i, e.Kind)
		}
	}
	return nil
}

// Class returns the class info for the ID, or a zero ClassInfo if out of
// range.
func (t *Trace) Class(id ClassID) ClassInfo {
	if id < 0 || int(id) >= len(t.Classes) {
		return ClassInfo{}
	}
	return t.Classes[id]
}

// TotalSelfTime returns the sum of all invocation self-times: the
// trace-implied execution time of the application on the client alone.
func (t *Trace) TotalSelfTime() time.Duration {
	var total time.Duration
	for i := range t.Events {
		total += t.Events[i].SelfTime
	}
	return total
}
