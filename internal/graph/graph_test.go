package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestInternAndLookup(t *testing.T) {
	g := New()
	a := g.Intern("A")
	if a2 := g.Intern("A"); a2 != a {
		t.Fatal("Intern must be idempotent")
	}
	b := g.Intern("B")
	if a.ID == b.ID {
		t.Fatal("distinct classes must get distinct IDs")
	}
	if n, ok := g.Lookup("A"); !ok || n != a {
		t.Fatal("Lookup(A) failed")
	}
	if _, ok := g.Lookup("missing"); ok {
		t.Fatal("Lookup must miss unknown classes")
	}
	if g.Node(a.ID) != a || g.Node(NodeID(99)) != nil || g.Node(-1) != nil {
		t.Fatal("Node accessor misbehaves")
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d, want 2", g.Len())
	}
}

func TestEdgesAreUndirectedAndAccumulate(t *testing.T) {
	g := New()
	a := g.Intern("A")
	b := g.Intern("B")
	g.AddInvocation(a.ID, b.ID, 100)
	g.AddInvocation(b.ID, a.ID, 50) // reverse direction, same edge
	g.AddAccess(a.ID, b.ID, 10)

	e := g.Edge(a.ID, b.ID)
	if e == nil {
		t.Fatal("edge missing")
	}
	if e != g.Edge(b.ID, a.ID) {
		t.Fatal("edge must be direction-independent")
	}
	if e.Invocations != 2 || e.Accesses != 1 || e.Bytes != 160 {
		t.Fatalf("edge = %+v", e)
	}
	if e.Interactions() != 3 {
		t.Fatalf("Interactions = %d, want 3", e.Interactions())
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

func TestSelfInteractionsIgnored(t *testing.T) {
	g := New()
	a := g.Intern("A")
	g.AddInvocation(a.ID, a.ID, 100)
	g.AddAccess(a.ID, a.ID, 100)
	if g.EdgeCount() != 0 {
		t.Fatal("intra-class interactions must not be recorded (paper §5.1)")
	}
}

func TestMemoryAccounting(t *testing.T) {
	g := New()
	a := g.Intern("A")
	g.AddObject(a.ID, 100)
	g.AddObject(a.ID, 200)
	if a.Memory != 300 || a.LiveObjects != 2 || a.TotalObjects != 2 || a.PeakMemory != 300 {
		t.Fatalf("node = %+v", a)
	}
	g.RemoveObject(a.ID, 100)
	if a.Memory != 200 || a.LiveObjects != 1 || a.PeakMemory != 300 {
		t.Fatalf("after remove: %+v", a)
	}
	if g.TotalMemory() != 200 {
		t.Fatalf("TotalMemory = %d", g.TotalMemory())
	}
	g.AddCPU(a.ID, 5*time.Millisecond)
	if g.TotalCPU() != 5*time.Millisecond {
		t.Fatalf("TotalCPU = %v", g.TotalCPU())
	}
}

// TestCloneIsDeep: a clone and its source share nothing, whichever of
// the two is mutated — a counter on an existing edge, a new edge, a
// node's memory, a new node.
func TestCloneIsDeep(t *testing.T) {
	for _, mutateClone := range []bool{false, true} {
		g := New()
		a, b, c := g.Intern("A").ID, g.Intern("B").ID, g.Intern("C").ID
		g.AddInvocation(a, b, 10)
		g.AddObject(a, 100)

		cl := g.Clone()
		changed, kept := g, cl
		if mutateClone {
			changed, kept = cl, g
		}
		changed.AddInvocation(a, b, 90)
		changed.AddInvocation(a, c, 5)
		changed.AddObject(a, 900)
		changed.Intern("D")

		if e := changed.Edge(a, b); e.Bytes != 100 || e.Invocations != 2 {
			t.Fatalf("mutateClone=%t: mutated edge = %d B, %d calls", mutateClone, e.Bytes, e.Invocations)
		}
		if n := kept.Node(a); n.Memory != 100 || n.LiveObjects != 1 {
			t.Fatalf("mutateClone=%t: other node mutated: %d B, %d live", mutateClone, n.Memory, n.LiveObjects)
		}
		if e := kept.Edge(a, b); e.Bytes != 10 || e.Invocations != 1 {
			t.Fatalf("mutateClone=%t: other edge mutated: %d B, %d calls", mutateClone, e.Bytes, e.Invocations)
		}
		if kept.Edge(a, c) != nil || kept.EdgeCount() != 1 {
			t.Fatalf("mutateClone=%t: new edge leaked across the clone", mutateClone)
		}
		if _, ok := kept.Lookup("D"); ok || kept.Len() != 3 {
			t.Fatalf("mutateClone=%t: new node leaked across the clone", mutateClone)
		}
	}
}

func TestCutWeightAndBytes(t *testing.T) {
	g := New()
	a := g.Intern("A")
	b := g.Intern("B")
	c := g.Intern("C")
	g.AddInvocation(a.ID, b.ID, 10)
	g.AddInvocation(b.ID, c.ID, 20)
	g.AddInvocation(a.ID, c.ID, 40)

	inA := func(id NodeID) bool { return id == a.ID }
	if w := g.CutWeight(inA, BytesWeight); w != 50 {
		t.Fatalf("bytes cut = %v, want 50 (edges A-B and A-C)", w)
	}
	if got := g.CutBytes(inA); got != 50 {
		t.Fatalf("CutBytes = %d, want 50", got)
	}
	interactions := func(e *Edge) float64 { return float64(e.Interactions()) }
	if got := g.CutWeight(inA, interactions); got != 2 {
		t.Fatalf("interaction cut = %v, want 2", got)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New()
	names := []string{"D", "B", "A", "C"}
	for _, n := range names {
		g.Intern(n)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		a := NodeID(r.Intn(4))
		b := NodeID(r.Intn(4))
		g.AddInvocation(a, b, 1)
	}
	first := g.Edges()
	second := g.Edges()
	if len(first) != len(second) {
		t.Fatal("edge count unstable")
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("Edges() order must be deterministic")
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].A > first[i].A || (first[i-1].A == first[i].A && first[i-1].B >= first[i].B) {
			t.Fatal("Edges() must be sorted by (A,B)")
		}
	}
}

func TestCutBytesMatchesManualSum(t *testing.T) {
	check := func(seed int64, nRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%10
		g := New()
		for i := 0; i < n; i++ {
			g.Intern(string(rune('a' + i)))
		}
		for i := 0; i < 30; i++ {
			a := NodeID(r.Intn(n))
			b := NodeID(r.Intn(n))
			g.AddInvocation(a, b, int64(r.Intn(100)))
		}
		inA := func(id NodeID) bool { return int(id)%2 == 0 }
		var want int64
		for _, e := range g.Edges() {
			if inA(e.A) != inA(e.B) {
				want += e.Bytes
			}
		}
		return g.CutBytes(inA) == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDOT(t *testing.T) {
	g := New()
	a := g.Intern("A")
	b := g.Intern("B")
	g.AddInvocation(a.ID, b.ID, 10)
	dot := g.DOT(map[NodeID]bool{b.ID: true})
	for _, want := range []string{"graph execution", "shape=box", "style=dotted", "n0 -- n1"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT output missing %q:\n%s", want, dot)
		}
	}
}
