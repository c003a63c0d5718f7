package monitor

import (
	"testing"
	"time"

	"aide/internal/trace"
	"aide/internal/vm"
)

func meta(name string) ClassMeta {
	switch name {
	case "ui":
		return ClassMeta{Pinned: true}
	case "math":
		return ClassMeta{Pinned: true, Stateless: true}
	case "arr":
		return ClassMeta{Array: true}
	default:
		return ClassMeta{}
	}
}

func TestHooksBuildGraph(t *testing.T) {
	m := New(meta)
	m.OnCreate("doc", 1, 1000)
	m.OnCreate("doc", 2, 500)
	m.OnInvoke("ui", "doc", "edit", 1, 100, 8, 3*time.Millisecond, false, false)
	m.OnAccess("doc", "arr", 3, 64)
	m.OnDelete("doc", 2, 500)

	g := m.Graph()
	doc, ok := g.Lookup("doc")
	if !ok {
		t.Fatal("doc missing")
	}
	if doc.Memory != 1000 || doc.LiveObjects != 1 || doc.TotalObjects != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.CPUTime != 3*time.Millisecond {
		t.Fatalf("doc CPU = %v", doc.CPUTime)
	}
	ui, _ := g.Lookup("ui")
	if !ui.Pinned {
		t.Fatal("ui must be pinned via meta")
	}
	arr, _ := g.Lookup("arr")
	if !arr.Array {
		t.Fatal("arr must be flagged via meta")
	}
	e := g.Edge(ui.ID, doc.ID)
	if e == nil || e.Invocations != 1 || e.Bytes != 108 {
		t.Fatalf("ui-doc edge = %+v", e)
	}
	inv, acc, cr, del, _ := m.Counts()
	if inv != 1 || acc != 1 || cr != 2 || del != 1 {
		t.Fatalf("counts: %d %d %d %d", inv, acc, cr, del)
	}
}

func TestGraphSnapshotIsolated(t *testing.T) {
	m := New(nil)
	m.OnCreate("a", 1, 100)
	snap := m.Graph()
	m.OnCreate("a", 2, 900)
	n, _ := snap.Lookup("a")
	if n.Memory != 100 {
		t.Fatal("snapshot mutated by later events")
	}
}

func TestGCListeners(t *testing.T) {
	m := New(nil)
	var got []int64
	m.OnGCListener(func(free, cap int64, freed bool) { got = append(got, free) })
	m.OnGC(10, 100, true)
	m.OnGC(5, 100, false)
	if len(got) != 2 || got[0] != 10 || got[1] != 5 {
		t.Fatalf("listener calls: %v", got)
	}
}

func TestFeedRebuildsSameGraph(t *testing.T) {
	// The same events by name and as a recording keyed against a class
	// table: the graphs must agree.
	m1 := New(meta)
	m1.OnCreate("doc", 1, 1000)
	m1.OnInvoke("ui", "doc", "edit", 1, 100, 8, time.Millisecond, false, false)
	m1.OnAccess("doc", "arr", 2, 64)

	m2 := New(nil)
	tr := &trace.Trace{
		App:          "X",
		HeapCapacity: 1 << 20,
		Classes:      []trace.ClassInfo{{Name: "doc"}, {Name: "ui", Pinned: true}, {Name: "arr", Array: true}},
		Events: []trace.Event{
			{Kind: trace.KindCreate, Callee: 0, Obj: 1, Bytes: 1000},
			{Kind: trace.KindInvoke, Caller: 1, Callee: 0, Obj: 1, Bytes: 108, SelfTime: time.Millisecond},
			{Kind: trace.KindAccess, Caller: 0, Callee: 2, Obj: 2, Bytes: 64},
		},
	}
	for i := range tr.Events {
		m2.Feed(tr, &tr.Events[i])
	}
	g1, g2 := m1.Graph(), m2.Graph()
	if g1.Len() != g2.Len() || g1.EdgeCount() != g2.EdgeCount() {
		t.Fatalf("graph shapes differ: %d/%d vs %d/%d", g1.Len(), g1.EdgeCount(), g2.Len(), g2.EdgeCount())
	}
	d1, _ := g1.Lookup("doc")
	d2, ok := g2.Lookup("doc")
	if !ok || d1.Memory != d2.Memory || d1.CPUTime != d2.CPUTime {
		t.Fatalf("doc differs: %+v vs %+v", d1, d2)
	}
	u1, _ := g1.Lookup("ui")
	u2, _ := g2.Lookup("ui")
	if e1, e2 := g1.Edge(u1.ID, d1.ID), g2.Edge(u2.ID, d2.ID); e2 == nil || *e1 != *e2 {
		t.Fatalf("ui-doc edge differs: %+v vs %+v", e1, e2)
	}
	if !u2.Pinned {
		t.Fatal("pins must come through the trace class table")
	}
}

func TestRegistryMeta(t *testing.T) {
	reg := vm.NewRegistry()
	body := func(*vm.Thread, vm.ObjectID, []vm.Value) (vm.Value, error) { return vm.Nil(), nil }
	mustRegister(reg, vm.ClassSpec{Name: "N", Methods: []vm.MethodSpec{{Name: "m", Native: true, Body: body}}})
	mustRegister(reg, vm.ClassSpec{Name: "A", Array: true})
	f := RegistryMeta(reg)
	if got := f("N"); !got.Pinned || got.Stateless {
		t.Fatalf("N meta = %+v", got)
	}
	if got := f("A"); !got.Array {
		t.Fatalf("A meta = %+v", got)
	}
	if got := f("unknown"); got != (ClassMeta{}) {
		t.Fatalf("unknown meta = %+v", got)
	}
}

func TestLiveGraphAccessor(t *testing.T) {
	m := New(nil)
	m.OnCreate("a", 1, 10)
	if m.Live().Len() != 1 {
		t.Fatal("Live graph missing node")
	}
}

// mustRegister registers a class during test setup, panicking on the spec
// errors that Register reports (setup bugs, not monitored behavior).
func mustRegister(reg *vm.Registry, spec vm.ClassSpec) {
	if _, err := reg.Register(spec); err != nil {
		panic(err)
	}
}
