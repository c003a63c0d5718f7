//go:build !race

package monitor_test

import (
	"fmt"
	"testing"
	"time"

	"aide/internal/monitor"
	"aide/internal/trace"
	"aide/internal/vm"
)

// TestWarmEventPathAllocatesNothing: once its classes (and fields) have
// been seen, an event costs no allocation through Feed, the by-name
// methods, an OnEvents window (a GC event in it included) or a monitored
// VM's invocation, with no recorder attached; and a window passed to
// OnEvents and flushed allocates no more than the same events fed one at a
// time. The race detector's instrumentation allocates, so the file is
// built without it.
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
	paths := map[string]func(){
		"OnInvoke": func() { m.OnInvoke("ui", "doc", "edit", 1, 16, 8, time.Microsecond, false, false) },
		"OnAccess": func() { m.OnAccess("ui", "doc", 1, 8) },
		"OnCreate": func() { m.OnCreate("doc", 1, 64) },
		"OnDelete": func() { m.OnDelete("doc", 1, 64) },
	}
	for i := range tr.Events {
		e := &tr.Events[i]
		paths[fmt.Sprintf("Feed %s #%d", e.Kind, i)] = func() { m.Feed(tr, e) }
	}
	paths["OnEvents window"] = func() { m.OnEvents(tr, tr.Events) }
	paths["monitored VM invoke"] = monitoredTap(t, m)
	for name, f := range paths {
		f() // first sight interns
		m.Flush()
		f() // first event of a window claims its delta
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s: %v allocations per warm event, want 0", name, n)
		}
	}

	perEvent := func() {
		for i := range tr.Events {
			m.Feed(tr, &tr.Events[i])
		}
		m.Flush()
	}
	windowed := func() {
		m.OnEvents(tr, tr.Events)
		m.Flush()
	}
	perEvent()
	windowed()
	if n, ref := testing.AllocsPerRun(100, windowed), testing.AllocsPerRun(100, perEvent); n > ref {
		t.Errorf("a window and its flush allocate %v, the same events fed one at a time and flushed %v", n, ref)
	}
}

// monitoredTap returns a warm local invocation on a VM m monitors: the
// caller's frame, the cross-class call it makes, both events appended and
// delivered a batch at a time.
func monitoredTap(t *testing.T, m *monitor.Monitor) func() {
	reg := vm.NewRegistry()
	for _, spec := range []vm.ClassSpec{
		{Name: "Doc", Methods: []vm.MethodSpec{{Name: "inc", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
			return vm.Nil(), nil
		}}}},
		{Name: "UI", Fields: []string{"doc"}, Methods: []vm.MethodSpec{{Name: "tap", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
			d, err := th.GetField(self, "doc")
			if err != nil {
				return vm.Nil(), err
			}
			return th.Invoke(d.Ref, "inc")
		}}}},
	} {
		if _, err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	v := vm.New(reg, vm.Config{Role: vm.RoleClient})
	v.SetHooks(m)
	th := v.NewThread()
	ui, _ := th.New("UI", 64)
	doc, _ := th.New("Doc", 64)
	if err := th.SetField(ui, "doc", vm.RefOf(doc)); err != nil {
		t.Fatal(err)
	}
	tap := func() {
		if _, err := th.Invoke(ui, "tap"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ { // several deliveries: the event buffer is grown
		tap()
	}
	return tap
}
