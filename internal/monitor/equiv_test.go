package monitor_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"aide/internal/apps"
	"aide/internal/graph"
	"aide/internal/monitor"
	"aide/internal/trace"
	"aide/internal/vm"
)

// recorded shares one recording of each Table-1 application between the
// tests of this file.
var recorded = apps.NewCache()

func table1(t *testing.T) []*trace.Trace {
	t.Helper()
	if testing.Short() {
		t.Skip("records the five Table-1 applications")
	}
	var out []*trace.Trace
	for _, spec := range apps.All() {
		tr, err := recorded.Get(spec)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tr)
	}
	return out
}

// traceMeta is the trace's class table as a ClassMetaFunc: what Feed
// applies from the table, a by-name monitor is told at interning.
func traceMeta(tr *trace.Trace) monitor.ClassMetaFunc {
	byName := map[string]monitor.ClassMeta{}
	for _, c := range tr.Classes {
		byName[c.Name] = monitor.ClassMeta{Pinned: c.Pinned, Array: c.Array, Stateless: c.Stateless}
	}
	return func(name string) monitor.ClassMeta { return byName[name] }
}

// hook delivers one trace event through the by-name hooks, the way the VM
// that recorded it did.
func hook(m *monitor.Monitor, tr *trace.Trace, e *trace.Event) {
	caller, callee := tr.Class(e.Caller).Name, tr.Class(e.Callee).Name
	switch e.Kind {
	case trace.KindInvoke:
		m.OnInvoke(caller, callee, "", vm.ObjectID(e.Obj), e.Bytes, 0, e.SelfTime, e.Native, e.Stateless)
	case trace.KindAccess:
		m.OnAccess(caller, callee, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindCreate:
		m.OnCreate(callee, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindDelete:
		m.OnDelete(callee, vm.ObjectID(e.Obj), e.Bytes)
	case trace.KindGC:
		m.OnGC(e.Free, e.Capacity, e.Freed)
	}
}

// books is everything a monitor knows, keyed by class name so that two
// monitors that interned in different orders still compare; order holds
// the names in NodeID order for the comparisons where that must agree too.
type books struct {
	order  []string
	nodes  map[string]graph.Node
	edges  map[[2]string]graph.Edge
	events int64
	counts [5]int64
}

func booksOf(m *monitor.Monitor) books {
	b := books{nodes: map[string]graph.Node{}, edges: map[[2]string]graph.Edge{}, events: m.Events()}
	b.counts[0], b.counts[1], b.counts[2], b.counts[3], b.counts[4] = m.Counts()
	g := m.Live()
	for _, n := range g.Nodes() {
		b.order = append(b.order, n.Name)
		c := *n
		c.ID = 0
		b.nodes[n.Name] = c
	}
	g.EdgesFunc(func(e *graph.Edge) {
		k := [2]string{g.Node(e.A).Name, g.Node(e.B).Name}
		if k[0] > k[1] {
			k[0], k[1] = k[1], k[0]
		}
		c := *e
		c.A, c.B = 0, 0
		b.edges[k] = c
	})
	return b
}

// unordered drops what depends on how concurrent sources interleaved:
// NodeID order, and the peak of each class's memory.
func unordered(b books) books {
	b.order = nil
	for name, n := range b.nodes {
		n.PeakMemory = 0
		b.nodes[name] = n
	}
	return b
}

func requireSameBooks(t *testing.T, what string, got, want books) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	if !reflect.DeepEqual(got.order, want.order) {
		t.Errorf("%s: node order differs:\n got %v\nwant %v", what, got.order, want.order)
	}
	for name, w := range want.nodes {
		if g := got.nodes[name]; g != w {
			t.Errorf("%s: node %s: got %+v, want %+v", what, name, g, w)
		}
	}
	for k, w := range want.edges {
		if g := got.edges[k]; g != w {
			t.Errorf("%s: edge %v: got %+v, want %+v", what, k, g, w)
		}
	}
	t.Fatalf("%s: books differ: %d/%d nodes, %d/%d edges, events %d/%d, counts %v/%v", what,
		len(got.nodes), len(want.nodes), len(got.edges), len(want.edges), got.events, want.events, got.counts, want.counts)
}

// TestFeedEqualsHooks: a trace replayed through Feed and the same events
// delivered through the by-name hooks are one accumulation — same nodes
// in the same order with the same flags and weights, same edges, same
// counts, flushed at the same events or not.
func TestFeedEqualsHooks(t *testing.T) {
	for _, tr := range table1(t) {
		fed, hooked := monitor.New(nil), monitor.New(traceMeta(tr))
		for i := range tr.Events {
			fed.Feed(tr, &tr.Events[i])
			hook(hooked, tr, &tr.Events[i])
			if i%20000 == 0 {
				fed.Flush()
			}
		}
		requireSameBooks(t, tr.App, booksOf(fed), booksOf(hooked))
	}
}

// TestWindowsEqualFeed: a trace passed to OnEvents in windows of seeded
// random length, GC events included as they lie, and the same events fed
// one at a time through Feed agree after every window on everything a
// snapshot shows: the graph (peaks and CPU time included), the event
// counters and the delta since the previous pull. OnEvents skips a
// window's GC events, so Feed is given the others.
func TestWindowsEqualFeed(t *testing.T) {
	for _, tr := range table1(t) {
		fed, windowed := monitor.New(nil), monitor.New(nil)
		rng := rand.New(rand.NewSource(int64(len(tr.Events))))
		var fedEpoch, windowedEpoch int64
		windows, gcs := 0, 0
		for i := 0; i < len(tr.Events); {
			j := min(len(tr.Events), i+rng.Intn(len(tr.Events)/50+1)) // 100 on average
			windowed.OnEvents(tr, tr.Events[i:j])
			for ; i < j; i++ {
				if e := &tr.Events[i]; e.Kind != trace.KindGC {
					fed.Feed(tr, e)
				} else {
					gcs++
				}
			}
			windows++
			if g, w := windowed.Graph(), fed.Graph(); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: graphs differ after window %d, event %d", tr.App, windows, j)
			}
			var gc, wc [5]int64
			gc[0], gc[1], gc[2], gc[3], gc[4] = windowed.Counts()
			wc[0], wc[1], wc[2], wc[3], wc[4] = fed.Counts()
			if gc != wc || windowed.Events() != fed.Events() {
				t.Fatalf("%s: after event %d counts %v/%v, events %d/%d", tr.App, j, gc, wc, windowed.Events(), fed.Events())
			}
			gd, wd := windowed.Delta(windowedEpoch), fed.Delta(fedEpoch)
			if !reflect.DeepEqual(gd, wd) {
				t.Fatalf("%s: deltas differ after event %d: %d/%d nodes, %d/%d edges", tr.App, j, len(gd.Nodes), len(wd.Nodes), len(gd.Edges), len(wd.Edges))
			}
			windowedEpoch, fedEpoch = gd.Epoch, wd.Epoch
		}
		if windows < 50 || gcs == 0 {
			t.Fatalf("%s: only %d windows, %d GC events", tr.App, windows, gcs)
		}
	}
}

// TestOnEventsSkipsGCEvents: a GC event names no class — Validate leaves
// its Caller and Callee unchecked — so in a window it neither interns a
// class nor counts.
func TestOnEventsSkipsGCEvents(t *testing.T) {
	tr := &trace.Trace{Classes: []trace.ClassInfo{{Name: "ui"}, {Name: "doc"}}}
	m := monitor.New(nil)
	m.OnEvents(tr, []trace.Event{
		{Kind: trace.KindGC, Callee: 1, Free: 1 << 20, Capacity: 1 << 21},
		{Kind: trace.KindGC, Caller: -1, Callee: 7},
		{Kind: trace.KindCreate, Callee: 0, Obj: 1, Bytes: 64},
	})
	g := m.Live()
	if _, _, creates, _, gcs := m.Counts(); g.Len() != 1 || g.Node(0).Name != "ui" || creates != 1 || gcs != 0 || m.Events() != 1 {
		t.Fatalf("%d classes (first %q), %d creates, %d GCs, %d events; want ui alone, 1 create, no GC, 1 event",
			g.Len(), g.Node(0).Name, creates, gcs, m.Events())
	}
}

// TestWindowsDuringConcurrentHooks: OnEvents windows and flushes on one
// goroutine while another drives the by-name hooks on the same monitor
// lose and double nothing — every invocation, access and creation either
// source made is on the books once, and no GC event in a window counts.
func TestWindowsDuringConcurrentHooks(t *testing.T) {
	tr := &trace.Trace{Classes: []trace.ClassInfo{{Name: "ui"}, {Name: "doc"}, {Name: "buf"}}}
	evs := []trace.Event{
		{Kind: trace.KindInvoke, Caller: 0, Callee: 1, Bytes: 24, SelfTime: time.Microsecond},
		{Kind: trace.KindAccess, Caller: 1, Callee: 2, Bytes: 8},
		{Kind: trace.KindGC, Free: 1 << 20, Capacity: 1 << 21},
		{Kind: trace.KindCreate, Callee: 2, Obj: 1, Bytes: 64},
	}
	const rounds = 20000
	m := monitor.New(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			m.OnInvoke("ui", "buf", "m", 0, 16, 0, time.Microsecond, false, false)
			m.OnCreate("doc", vm.ObjectID(i), 32)
		}
	}()
	for i := 0; i < rounds; i++ {
		m.OnEvents(tr, evs)
		if i%64 == 0 {
			m.Flush()
		}
	}
	<-done

	inv, acc, creates, _, gcs := m.Counts()
	if inv != 2*rounds || acc != rounds || creates != 2*rounds || gcs != 0 || m.Events() != 5*rounds {
		t.Fatalf("counted %d invocations, %d accesses, %d creates, %d GCs, %d events; want %d, %d, %d, 0, %d",
			inv, acc, creates, gcs, m.Events(), 2*rounds, rounds, 2*rounds, 5*rounds)
	}
	g := m.Live()
	var einv, eacc, bytes, objs int64
	g.EdgesFunc(func(e *graph.Edge) { einv, eacc, bytes = einv+e.Invocations, eacc+e.Accesses, bytes+e.Bytes })
	for _, n := range g.Nodes() {
		objs += n.TotalObjects
	}
	if einv != 2*rounds || eacc != rounds || bytes != (24+16+8)*rounds || objs != 2*rounds {
		t.Fatalf("graph holds %d invocations, %d accesses, %d bytes, %d objects", einv, eacc, bytes, objs)
	}
}

// feedAll replays each part from its own goroutine into one monitor.
func feedAll(m *monitor.Monitor, trs []*trace.Trace, parts [][]trace.Event) {
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(tr *trace.Trace, evs []trace.Event) {
			defer wg.Done()
			for j := range evs {
				m.Feed(tr, &evs[j])
			}
		}(trs[i], parts[i])
	}
	wg.Wait()
}

// TestConcurrentFeedEqualsSerial: two goroutines feeding two different
// traces, or the two halves of one, through the trace bindings leave the
// books serial feeding leaves.
func TestConcurrentFeedEqualsSerial(t *testing.T) {
	trs := table1(t)
	a, b := trs[1], trs[2]

	serial, both := monitor.New(nil), monitor.New(nil)
	feedAll(serial, []*trace.Trace{a}, [][]trace.Event{a.Events})
	feedAll(serial, []*trace.Trace{b}, [][]trace.Event{b.Events})
	feedAll(both, []*trace.Trace{a, b}, [][]trace.Event{a.Events, b.Events})
	requireSameBooks(t, "two traces", unordered(booksOf(both)), unordered(booksOf(serial)))

	serial, both = monitor.New(nil), monitor.New(nil)
	feedAll(serial, []*trace.Trace{a}, [][]trace.Event{a.Events})
	half := len(a.Events) / 2
	feedAll(both, []*trace.Trace{a, a}, [][]trace.Event{a.Events[:half], a.Events[half:]})
	requireSameBooks(t, "two halves of one trace", unordered(booksOf(both)), unordered(booksOf(serial)))
}

// TestFeedFollowsAGrowingTrace: a trace still being appended to grows its
// class table between Feed calls; the binding must pick the new classes
// up, and the books must match the same events delivered by name.
func TestFeedFollowsAGrowingTrace(t *testing.T) {
	meta := func(name string) monitor.ClassMeta { return monitor.ClassMeta{Pinned: name == "K2"} }
	src, dst := monitor.New(meta), monitor.New(nil)
	tr := &trace.Trace{App: "growing", HeapCapacity: 1 << 20}
	for round := 0; round < 4; round++ {
		k, l := fmt.Sprintf("K%d", round), fmt.Sprintf("L%d", round)
		src.OnCreate(k, vm.ObjectID(round), 100)
		src.OnInvoke(k, l, "m", vm.ObjectID(round), 10, 6, time.Microsecond, false, false)
		src.OnAccess(l, "K0", 0, 8)

		ki, li, fed := trace.ClassID(len(tr.Classes)), trace.ClassID(len(tr.Classes)+1), len(tr.Events)
		tr.Classes = append(tr.Classes, trace.ClassInfo{Name: k, Pinned: meta(k).Pinned}, trace.ClassInfo{Name: l})
		tr.Events = append(tr.Events,
			trace.Event{Kind: trace.KindCreate, Callee: ki, Obj: trace.ObjectID(round), Bytes: 100},
			trace.Event{Kind: trace.KindInvoke, Caller: ki, Callee: li, Obj: trace.ObjectID(round), Bytes: 16, SelfTime: time.Microsecond},
			trace.Event{Kind: trace.KindAccess, Caller: li, Callee: 0, Bytes: 8})
		for ; fed < len(tr.Events); fed++ {
			dst.Feed(tr, &tr.Events[fed])
		}
	}
	requireSameBooks(t, "growing trace", booksOf(dst), booksOf(src))
}

// TestFeedInvokeWithoutCaller: an invoke whose Caller is outside the
// class table has no caller — it is a self-sourced entry invocation.
func TestFeedInvokeWithoutCaller(t *testing.T) {
	tr := &trace.Trace{Classes: []trace.ClassInfo{{Name: "main"}, {Name: "doc"}}}
	m := monitor.New(nil)
	for _, caller := range []trace.ClassID{-1, 7, 1} {
		m.Feed(tr, &trace.Event{Kind: trace.KindInvoke, Caller: caller, Callee: 0, Bytes: 24, SelfTime: time.Millisecond})
	}
	g := m.Live()
	main, _ := g.Lookup("main")
	if main == nil || main.CPUTime != 3*time.Millisecond || g.Len() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("main = %+v, %d nodes, %d edges; want 3ms of CPU, main and doc, and the one edge between them", main, g.Len(), g.EdgeCount())
	}
	if inv, _, _, _, _ := m.Counts(); inv != 3 || m.Events() != 3 {
		t.Fatalf("counted %d invocations, %d events; want 3 and 3", inv, m.Events())
	}
}
