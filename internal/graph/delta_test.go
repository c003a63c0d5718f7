package graph

import (
	"testing"
	"time"
)

// TestDeltaLineage exercises the single-consumer delta contract: the
// first pull carries everything dirty since birth, later pulls carry only
// touched nodes/edges, and an out-of-lineage epoch forces Full.
func TestDeltaLineage(t *testing.T) {
	g := New()
	a := g.Intern("a")
	b := g.Intern("b")
	c := g.Intern("c")
	g.AddInvocation(a.ID, b.ID, 100)
	g.AddObject(a.ID, 64)

	d1 := g.Delta(0)
	if d1.Full {
		t.Fatal("first in-lineage pull must not be Full")
	}
	if d1.N != 3 || len(d1.Nodes) != 3 || len(d1.Edges) != 1 {
		t.Fatalf("d1 = N%d nodes%d edges%d", d1.N, len(d1.Nodes), len(d1.Edges))
	}
	if d1.Epoch != 1 {
		t.Fatalf("epoch = %d", d1.Epoch)
	}

	// Nothing changed: the next delta is empty.
	d2 := g.Delta(d1.Epoch)
	if d2.Full || len(d2.Nodes) != 0 || len(d2.Edges) != 0 {
		t.Fatalf("quiet delta = %+v", d2)
	}

	// Touch one edge and one node.
	g.AddAccess(b.ID, c.ID, 8)
	g.AddCPU(a.ID, time.Millisecond)
	d3 := g.Delta(d2.Epoch)
	// Only the touched edge and the CPU-attributed node are dirty; edge
	// endpoints ride on the edge copy itself.
	if d3.Full || len(d3.Edges) != 1 || len(d3.Nodes) != 1 || d3.Nodes[0].ID != a.ID {
		t.Fatalf("d3 = full=%t nodes=%d edges=%d", d3.Full, len(d3.Nodes), len(d3.Edges))
	}
	if d3.Edges[0].A != b.ID || d3.Edges[0].B != c.ID || d3.Edges[0].Accesses != 1 {
		t.Fatalf("d3 edge = %+v", d3.Edges[0])
	}

	// Wrong epoch: full resync.
	d4 := g.Delta(999)
	if !d4.Full || len(d4.Nodes) != 3 || len(d4.Edges) != 2 {
		t.Fatalf("d4 = full=%t nodes=%d edges=%d", d4.Full, len(d4.Nodes), len(d4.Edges))
	}
}

// The test above intentionally documents that AddCPU dirties exactly one
// node; keep the count assertion honest.
func TestDeltaDirtyNodeGranularity(t *testing.T) {
	g := New()
	a := g.Intern("a")
	g.Intern("b")
	g.Delta(0) // drain birth dirt
	g.AddCPU(a.ID, time.Second)
	d := g.Delta(1)
	if len(d.Nodes) != 1 || d.Nodes[0].ID != a.ID || d.Nodes[0].CPUTime != time.Second {
		t.Fatalf("delta nodes = %+v", d.Nodes)
	}
}

// Delta hands out value copies: mutating the graph afterwards must not
// alter an already-pulled delta.
func TestDeltaIsolation(t *testing.T) {
	g := New()
	a := g.Intern("a")
	b := g.Intern("b")
	g.AddInvocation(a.ID, b.ID, 10)
	d := g.Delta(0)
	g.AddInvocation(a.ID, b.ID, 90)
	if d.Edges[0].Bytes != 10 {
		t.Fatalf("delta mutated: %+v", d.Edges[0])
	}
}

func TestAddNodeDeltaPeakSemantics(t *testing.T) {
	// A window of +100, +200, -250, +30 has net -(-)= +80 over a 1000
	// base, but its intra-window peak is 1000+300.
	g := New()
	n := g.Intern("x")
	g.AddObject(n.ID, 1000)
	g.AddNodeDelta(n.ID, 80, 2, 3, 300, time.Millisecond)
	if n.Memory != 1080 || n.PeakMemory != 1300 || n.LiveObjects != 3 || n.TotalObjects != 4 {
		t.Fatalf("node = %+v", n)
	}
	if n.CPUTime != time.Millisecond {
		t.Fatalf("cpu = %v", n.CPUTime)
	}
	// A delete-only window (peakRise 0) never raises the peak.
	g.AddNodeDelta(n.ID, -500, -1, 0, 0, 0)
	if n.Memory != 580 || n.PeakMemory != 1300 {
		t.Fatalf("after deletes: %+v", n)
	}
}

// TestEdgesCaching: repeated Edges calls return the same slice until a
// new class pair interacts; counter updates alone do not invalidate.
func TestEdgesCaching(t *testing.T) {
	g := New()
	a, b, c := g.Intern("a"), g.Intern("b"), g.Intern("c")
	g.AddInvocation(a.ID, b.ID, 1)
	s1 := g.Edges()
	g.AddInvocation(a.ID, b.ID, 1) // existing edge: set unchanged
	s2 := g.Edges()
	if &s1[0] != &s2[0] || len(s2) != 1 {
		t.Fatal("cache must survive counter updates")
	}
	g.AddAccess(b.ID, c.ID, 1) // new edge: invalidate
	s3 := g.Edges()
	if len(s3) != 2 || s3[0].A != a.ID || s3[1].B != c.ID {
		t.Fatalf("rebuilt edges = %v", s3)
	}
	// EdgesFunc visits every edge exactly once.
	seen := 0
	g.EdgesFunc(func(*Edge) { seen++ })
	if seen != 2 {
		t.Fatalf("EdgesFunc visited %d", seen)
	}
}

// TestCloneStartsFreshLineage: a clone's first delta pull must carry the
// whole graph.
func TestCloneStartsFreshLineage(t *testing.T) {
	g := New()
	a, b := g.Intern("a"), g.Intern("b")
	g.AddInvocation(a.ID, b.ID, 10)
	g.Delta(0) // drain the original

	c := g.Clone()
	d := c.Delta(0)
	if len(d.Nodes) != 2 || len(d.Edges) != 1 {
		t.Fatalf("clone first delta = nodes%d edges%d", len(d.Nodes), len(d.Edges))
	}
}
