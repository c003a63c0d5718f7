//go:build !race

package monitor_test

import (
	"fmt"
	"testing"
	"time"

	"aide/internal/monitor"
	"aide/internal/trace"
)

// TestWarmEventPathAllocatesNothing: once its classes (and fields) have
// been seen, an event costs no allocation through Feed, Batch.Feed or the
// by-name hooks, with no recorder attached; and a batch's flush of a
// window the monitor has seen before allocates no more than the
// monitor's own. The race detector's instrumentation allocates, so the
// file is built without it.
func TestWarmEventPathAllocatesNothing(t *testing.T) {
	tr := &trace.Trace{
		Classes: []trace.ClassInfo{{Name: "ui", Pinned: true}, {Name: "doc"}},
		Events: []trace.Event{
			{Kind: trace.KindInvoke, Caller: 0, Callee: 1, Bytes: 24, SelfTime: time.Microsecond},
			{Kind: trace.KindInvoke, Caller: -1, Callee: 1, SelfTime: time.Microsecond},
			{Kind: trace.KindAccess, Caller: 0, Callee: 1, Bytes: 8},
			{Kind: trace.KindCreate, Callee: 1, Obj: 1, Bytes: 64},
			{Kind: trace.KindDelete, Callee: 1, Obj: 1, Bytes: 64},
			{Kind: trace.KindGC, Free: 1 << 20, Capacity: 1 << 21},
		},
	}
	m := monitor.New(nil)
	b := m.Batch()
	paths := map[string]func(){
		"OnInvoke":      func() { m.OnInvoke("ui", "doc", "edit", 1, 16, 8, time.Microsecond, false, false) },
		"OnAccess":      func() { m.OnAccess("ui", "doc", 1, 8) },
		"OnCreate":      func() { m.OnCreate("doc", 1, 64) },
		"OnDelete":      func() { m.OnDelete("doc", 1, 64) },
		"OnFieldAccess": func() { m.OnFieldAccess("doc", "len", 8) },
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		paths[fmt.Sprintf("Feed %s #%d", e.Kind, i)] = func() { m.Feed(tr, e) }
		paths[fmt.Sprintf("Batch.Feed %s #%d", e.Kind, i)] = func() { b.Feed(tr, e) }
	}
	for name, f := range paths {
		f() // first sight interns
		m.Flush()
		b.Flush()
		f() // first event of a window claims its delta
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocations per warm event, want 0", name, n)
		}
	}

	window := func(feed func(*trace.Trace, *trace.Event), flush func()) func() {
		return func() {
			for i := range tr.Events {
				feed(tr, &tr.Events[i])
			}
			flush()
		}
	}
	perEvent, batched := window(m.Feed, m.Flush), window(b.Feed, b.Flush)
	perEvent()
	batched()
	if n, ref := testing.AllocsPerRun(100, batched), testing.AllocsPerRun(100, perEvent); n > ref {
		t.Errorf("a batched window and its flush allocate %v, the same window fed per event and flushed %v", n, ref)
	}
}
