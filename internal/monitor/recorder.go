package monitor

import (
	"aide/internal/trace"
	"aide/internal/vm"
	"time"
)

// Recorder captures a trace.Trace from the monitoring stream. The paper
// extracts traces from the prototype while running the application to
// completion on a single PC (paper §4); attach a Recorder to a Monitor on
// an unpartitioned VM to do the same.
//
// Recorder is not safe for concurrent use on its own; the owning Monitor
// serializes calls.
type Recorder struct {
	t       *trace.Trace
	classIx map[string]trace.ClassID
	meta    ClassMetaFunc
}

// NewRecorder returns a recorder for the named application. meta supplies
// pinned/array class metadata for the trace class table.
func NewRecorder(app string, heapCapacity int64, meta ClassMetaFunc) *Recorder {
	return &Recorder{
		t: &trace.Trace{
			App:          app,
			HeapCapacity: heapCapacity,
		},
		classIx: make(map[string]trace.ClassID),
		meta:    meta,
	}
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *trace.Trace { return r.t }

func (r *Recorder) class(name string) trace.ClassID {
	if id, ok := r.classIx[name]; ok {
		return id
	}
	id := trace.ClassID(len(r.t.Classes))
	info := trace.ClassInfo{Name: name}
	if r.meta != nil {
		m := r.meta(name)
		info.Pinned, info.Array, info.Stateless = m.Pinned, m.Array, m.Stateless
	}
	r.t.Classes = append(r.t.Classes, info)
	r.classIx[name] = id
	return id
}

func (r *Recorder) invoke(caller, callee string, obj vm.ObjectID, bytes int64, selfTime time.Duration, native, stateless bool) {
	callerID := trace.ClassID(-1)
	if caller != "" {
		callerID = r.class(caller)
	} else {
		callerID = r.class(callee) // self-sourced entry invocation
	}
	r.t.Events = append(r.t.Events, trace.Event{
		Kind:      trace.KindInvoke,
		Caller:    callerID,
		Callee:    r.class(callee),
		Obj:       trace.ObjectID(obj),
		Bytes:     bytes,
		SelfTime:  selfTime,
		Native:    native,
		Stateless: stateless,
	})
}

func (r *Recorder) access(from, to string, obj vm.ObjectID, bytes int64) {
	fromID := trace.ClassID(-1)
	if from != "" {
		fromID = r.class(from)
	} else {
		fromID = r.class(to)
	}
	r.t.Events = append(r.t.Events, trace.Event{
		Kind:   trace.KindAccess,
		Caller: fromID,
		Callee: r.class(to),
		Obj:    trace.ObjectID(obj),
		Bytes:  bytes,
	})
}

// lifecycle records an object's creation or deletion, by k.
func (r *Recorder) lifecycle(k trace.EventKind, class string, obj vm.ObjectID, size int64) {
	r.t.Events = append(r.t.Events, trace.Event{
		Kind:   k,
		Callee: r.class(class),
		Obj:    trace.ObjectID(obj),
		Bytes:  size,
	})
}

func (r *Recorder) gc(free, capacity int64, freed bool) {
	r.t.Events = append(r.t.Events, trace.Event{
		Kind:     trace.KindGC,
		Free:     free,
		Capacity: capacity,
		Freed:    freed,
	})
}
