package monitor

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"aide/internal/graph"
	"aide/internal/vm"
)

// feedWorkload drives a fixed synthetic workload through the monitor from
// `sources` goroutines, partitioned round-robin so every interleaving
// consumes the same multiset of events. Indices ≡ 4 (mod 5) feed nothing.
func feedWorkload(m *Monitor, classes, events, sources int) {
	var wg sync.WaitGroup
	for s := 0; s < sources; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := s; i < events; i += sources {
				a := fmt.Sprintf("C%03d", i%classes)
				b := fmt.Sprintf("C%03d", (i*7+1)%classes)
				switch i % 5 {
				case 0:
					m.OnInvoke(a, b, "m", vm.ObjectID(i), int64(i%256), 16, time.Microsecond, false, false)
				case 1:
					m.OnAccess(a, b, vm.ObjectID(i), int64(i%128))
				case 2:
					m.OnCreate(a, vm.ObjectID(i), 64)
				case 3:
					m.OnDelete(a, vm.ObjectID(i), 32)
				}
			}
		}(s)
	}
	wg.Wait()
}

// TestConcurrentSourcesMatchSerial: the same workload fed by one source
// and by 8 concurrent ones must merge to identical graphs — integer deltas
// commute, so the ingestion interleaving cannot leak into the
// partitioner's input.
func TestConcurrentSourcesMatchSerial(t *testing.T) {
	const classes, events = 40, 10000
	serial := New(nil)
	feedWorkload(serial, classes, events, 1)
	concurrent := New(nil)
	feedWorkload(concurrent, classes, events, 8)

	gs, gp := serial.Live(), concurrent.Live()
	if gs.Len() != gp.Len() {
		t.Fatalf("nodes: %d vs %d", gs.Len(), gp.Len())
	}
	// Interning order (and so NodeID assignment) is racy under concurrent
	// sources; compare edges by class-name pair, the stable identity.
	type pair struct{ a, b string }
	name := func(g *graph.Graph, id graph.NodeID) string { return g.Node(id).Name }
	canon := func(a, b string) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	got := map[pair]*graph.Edge{}
	gp.EdgesFunc(func(e *graph.Edge) { got[canon(name(gp, e.A), name(gp, e.B))] = e })
	gs.EdgesFunc(func(e *graph.Edge) {
		o := got[canon(name(gs, e.A), name(gs, e.B))]
		if o == nil || o.Invocations != e.Invocations || o.Accesses != e.Accesses || o.Bytes != e.Bytes {
			t.Errorf("edge (%d,%d): serial=%+v concurrent=%v", e.A, e.B, e, o)
		}
	})
	for _, n := range gs.Nodes() {
		o, ok := gp.Lookup(n.Name)
		if !ok || o.Memory != n.Memory || o.LiveObjects != n.LiveObjects || o.TotalObjects != n.TotalObjects {
			t.Errorf("node %s: serial=%+v concurrent=%+v", n.Name, n, o)
		}
	}

	si, sa, sc, sd, _ := serial.Counts()
	pi, pa, pc, pd, _ := concurrent.Counts()
	if si != pi || sa != pa || sc != pc || sd != pd {
		t.Fatalf("counts diverge: serial=%d/%d/%d/%d concurrent=%d/%d/%d/%d", si, sa, sc, sd, pi, pa, pc, pd)
	}
}

// TestConcurrentSnapshotsDuringIngestion races Graph/Delta/Live
// snapshots against 8 ingestion sources; run under -race this is the
// ingest-safety gate.
func TestConcurrentSnapshotsDuringIngestion(t *testing.T) {
	m := New(nil)
	m.OnGCListener(func(free, capacity int64, freed bool) {})
	done := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(2)
	go func() {
		defer snaps.Done()
		var epoch int64
		for {
			select {
			case <-done:
				return
			default:
			}
			d := m.Delta(epoch)
			epoch = d.Epoch
		}
	}()
	go func() {
		defer snaps.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			g := m.Graph()
			_ = g.Len()
			m.OnGC(1<<20, 1<<24, false)
		}
	}()
	feedWorkload(m, 25, 20000, 8)
	close(done)
	snaps.Wait()

	// After the dust settles the final flush must account for every event.
	inv, acc, creates, deletes, _ := m.Counts()
	g := m.Live()
	var einv, eacc int64
	g.EdgesFunc(func(e *graph.Edge) { einv += e.Invocations; eacc += e.Accesses })
	var total, live int64
	for _, n := range g.Nodes() {
		total += n.TotalObjects
		live += n.LiveObjects
	}
	if total != creates || live != creates-deletes {
		t.Fatalf("object accounting: total=%d creates=%d live=%d deletes=%d", total, creates, live, deletes)
	}
	// Self-edges are dropped by design; cross-class pairs here never
	// alias (i%classes vs (i*7+1)%classes collide only when 6i+1 ≡ 0 mod
	// classes, which mod 25 needs i ≡ 4 mod 5 — an index that feeds
	// nothing).
	if einv != inv || eacc != acc {
		t.Fatalf("edge accounting: einv=%d inv=%d eacc=%d acc=%d", einv, inv, eacc, acc)
	}
}

// TestDeltaPullLoop: successive Delta pulls across ingestion windows sum
// to the same totals as one full snapshot — the single-consumer contract
// the incremental partitioner relies on.
func TestDeltaPullLoop(t *testing.T) {
	m := New(nil)
	var epoch int64
	sum := map[graph.EdgeKey]int64{}
	for round := 0; round < 5; round++ {
		feedWorkload(m, 10, 2000, 4)
		d := m.Delta(epoch)
		if d.Full {
			t.Fatalf("round %d: unexpected full resync", round)
		}
		epoch = d.Epoch
		for _, e := range d.Edges {
			// Deltas carry absolute counters for changed edges; keep the
			// latest value per key.
			sum[graph.EdgeKey{A: e.A, B: e.B}] = e.Bytes
		}
	}
	g := m.Live()
	n := 0
	g.EdgesFunc(func(e *graph.Edge) {
		n++
		if sum[graph.EdgeKey{A: e.A, B: e.B}] != e.Bytes {
			t.Errorf("edge (%d,%d): delta saw %d, live has %d", e.A, e.B, sum[graph.EdgeKey{A: e.A, B: e.B}], e.Bytes)
		}
	})
	if n != len(sum) {
		t.Fatalf("delta stream missed edges: saw %d, live %d", len(sum), n)
	}
}

// TestGCListenerNoCopyPerEvent: listeners registered once keep firing and
// registration during a storm of GC events stays race-free (COW swap).
func TestGCListenerCOW(t *testing.T) {
	m := New(nil)
	var mu sync.Mutex
	hits := 0
	m.OnGCListener(func(free, capacity int64, freed bool) {
		mu.Lock()
		hits++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.OnGC(1024, 4096, i%2 == 0)
			}
		}()
	}
	// Register more listeners mid-storm.
	for i := 0; i < 8; i++ {
		m.OnGCListener(func(free, capacity int64, freed bool) {})
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if hits != 2000 {
		t.Fatalf("first listener fired %d times, want 2000", hits)
	}
}
