// Package vm implements an interpreted object virtual machine: the
// substrate standing in for the paper's modified HP Chai JVM.
//
// The VM exposes exactly the abstractions AIDE's mechanisms operate on:
// classes and objects with sizes, object references that may transparently
// point at a peer VM, native methods that are pinned to the client, static
// data that is consistent only on the client, a bounded heap with an
// incremental mark-and-sweep collector whose cycles report free memory, and
// monitoring hooks on method invocation, data-field access, object creation
// and deletion (paper §3.2, §3.4, §4).
//
// Method bodies are Go closures registered in a Registry shared by both
// VMs, mirroring the paper's simplifying assumption that "both VMs have
// access to the application's Java bytecodes".
package vm

import (
	"fmt"

	"aide/internal/trace"
)

// ObjectID identifies an object within one VM's private reference
// namespace. Each JVM has a private object reference namespace and does not
// understand an object reference from another JVM (paper §3.2); the remote
// runtime maps namespaces onto each other via stubs.
type ObjectID int64

// InvalidObject is the zero-value object reference target.
const InvalidObject ObjectID = 0

// ValueKind discriminates Value.
type ValueKind uint8

// Value kinds.
const (
	KindNil ValueKind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindBytes
	KindRef

	// KindDeferred marks a field whose value was withheld from a lazy
	// migration: the origin VM keeps the real value as a residual and the
	// receiver pulls it on first access (MsgFieldFetch). It never appears
	// as a method argument or return value, only inside MigratedObject
	// field lists and materialized object slots.
	KindDeferred
)

// Value is the VM's tagged scalar/reference union.
type Value struct {
	Kind  ValueKind
	I     int64
	F     float64
	B     bool
	S     string
	Bytes []byte
	Ref   ObjectID // local reference namespace of the holding VM
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Int boxes an integer.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Float boxes a float.
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }

// Bool boxes a boolean.
func Bool(b bool) Value { return Value{Kind: KindBool, B: b} }

// Str boxes a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Blob boxes a byte payload. The payload is not copied.
func Blob(b []byte) Value { return Value{Kind: KindBytes, Bytes: b} }

// RefOf boxes an object reference in the local namespace.
func RefOf(id ObjectID) Value { return Value{Kind: KindRef, Ref: id} }

// IsNil reports whether the value is nil (or a nil reference).
func (v Value) IsNil() bool {
	return v.Kind == KindNil || (v.Kind == KindRef && v.Ref == InvalidObject)
}

// WireSize returns the number of bytes the value occupies as an RPC
// parameter or return value; interaction monitoring charges this amount
// (paper §3.4: "the amount of information exchanged between two classes as
// represented by the parameters and return values").
func (v Value) WireSize() int64 {
	switch v.Kind {
	case KindNil:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return int64(len(v.S)) + 4
	case KindBytes:
		return int64(len(v.Bytes)) + 4
	case KindRef:
		return 12 // namespace tag + 8-byte id
	default:
		return 1
	}
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindBool:
		return fmt.Sprintf("%t", v.B)
	case KindString:
		return fmt.Sprintf("%q", v.S)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.Bytes))
	case KindRef:
		return fmt.Sprintf("ref(%d)", v.Ref)
	case KindDeferred:
		return "deferred"
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}

// WireSizeAll sums the wire sizes of a parameter list.
func WireSizeAll(vs []Value) int64 {
	var n int64
	for i := range vs {
		n += vs[i].WireSize()
	}
	return n
}

// Hooks receive monitoring callbacks from the VM. The prototype augments
// the JVM's code for method invocations, data field accesses, object
// creation, and object deletion, and extracts resource information from the
// garbage collector (paper §3.4). A nil Hooks disables monitoring.
//
// The four object-level kinds arrive as trace events, keyed by the index of
// each class in the VM's registry, a batch at a time: the VM buffers them
// and delivers the buffer when it is full, before a collection's OnGC, when
// the hooks change, and whenever the flush handed to Attach runs.
type Hooks interface {
	// OnEvents receives buffered invoke, access, create and delete events,
	// in the order they happened, keyed against t's class table. It runs
	// under the VM lock, and the VM reuses evs once it returns.
	OnEvents(t *trace.Trace, evs []trace.Event)

	// OnGC fires after every collection cycle with the post-cycle free
	// memory, matching the prototype's "frequent memory usage updates".
	// Every event of the cycle, and before it, has been delivered.
	OnGC(free, capacity int64, freed bool)

	// Attach is called once SetHooks installs the hooks, with the VM's
	// flush: a call delivers what the VM has buffered. It takes the VM lock,
	// so the hooks must never run it while that lock is held.
	Attach(flush func())
}
