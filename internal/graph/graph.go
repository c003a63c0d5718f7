// Package graph implements the weighted execution graph that AIDE builds
// from run-time monitoring information (paper §3.4).
//
// Each node represents a class and is annotated with the amount of memory
// occupied by the objects of that class, the attributed CPU time, and
// whether the class is pinned to the client (native methods, static data).
// Each edge represents the interactions between two classes and is annotated
// with the number of interactions (method invocations and data accesses)
// and the total amount of information transferred between objects of the
// classes.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// NodeID identifies a class node within a Graph. IDs are dense, starting at
// zero, in insertion order; they index internal tables directly.
type NodeID int32

// Node carries the per-class annotations of the execution graph.
type Node struct {
	ID   NodeID
	Name string

	// Memory is the number of bytes currently occupied by live objects of
	// this class.
	Memory int64

	// PeakMemory is the largest value Memory has held.
	PeakMemory int64

	// LiveObjects is the current number of live objects of this class.
	LiveObjects int64

	// TotalObjects counts every object of this class ever created.
	TotalObjects int64

	// CPUTime is the execution time attributed to this class: time spent in
	// its methods minus time spent in nested calls to methods of other
	// classes (paper Figure 9).
	CPUTime time.Duration

	// Pinned marks classes that cannot be offloaded, such as classes with
	// native methods or host-specific static data (paper §3.2, §3.3).
	Pinned bool

	// Array marks primitive-array pseudo-classes, which the §5.2
	// "array granularity" enhancement may place at object granularity.
	Array bool

	// Stateless marks pinned classes whose native methods are all
	// stateless (math functions, string copies); under the §5.2 native
	// enhancement their invocations execute on the calling device.
	Stateless bool
}

// Edge carries the per-pair interaction annotations of the execution graph.
// Edges are undirected: interactions between classes a and b accumulate on a
// single edge regardless of direction.
type Edge struct {
	A, B NodeID // A < B

	// Invocations counts method invocations between objects of the two
	// classes.
	Invocations int64

	// Accesses counts data-field accesses between objects of the two
	// classes.
	Accesses int64

	// Bytes is the total amount of information transferred between objects
	// of the two classes, as represented by the parameters and return
	// values used in inter-class interactions.
	Bytes int64
}

// Interactions returns the combined interaction-event count for the edge.
func (e *Edge) Interactions() int64 { return e.Invocations + e.Accesses }

// EdgeKey canonically orders an unordered class pair.
type EdgeKey struct{ A, B NodeID }

func makeEdgeKey(a, b NodeID) EdgeKey {
	if a > b {
		a, b = b, a
	}
	return EdgeKey{A: a, B: b}
}

// Graph is the fully connected weighted execution graph of paper §3.4. The
// zero value is not usable; call New.
type Graph struct {
	nodes  []*Node
	byName map[string]NodeID
	edges  map[EdgeKey]*Edge

	// sorted caches the deterministic (A, B)-ordered edge slice Edges
	// returns. Counter updates on existing edges keep the set intact, so
	// the cache is invalidated only when a new edge is created.
	sorted   []*Edge
	sortedOK bool

	// Dirty tracking for delta-driven repartitioning: every node or edge
	// touched since the last Delta call. epoch counts Delta consumptions.
	dirtyNodes map[NodeID]struct{}
	dirtyEdges map[EdgeKey]struct{}
	epoch      int64
}

// New returns an empty execution graph.
func New() *Graph {
	return &Graph{
		byName:     make(map[string]NodeID),
		edges:      make(map[EdgeKey]*Edge),
		dirtyNodes: make(map[NodeID]struct{}),
		dirtyEdges: make(map[EdgeKey]struct{}),
	}
}

// Len returns the number of class nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// EdgeCount returns the number of distinct class-pair links with recorded
// interactions. The paper's Table 2 reports this as "interactions"
// (average/maximum links), distinct from interaction events.
func (g *Graph) EdgeCount() int { return len(g.edges) }

// Intern returns the node for the named class, creating it if needed.
func (g *Graph) Intern(name string) *Node {
	if id, ok := g.byName[name]; ok {
		return g.nodes[id]
	}
	id := NodeID(len(g.nodes))
	n := &Node{ID: id, Name: name}
	g.nodes = append(g.nodes, n)
	g.byName[name] = id
	g.dirtyNodes[id] = struct{}{}
	return n
}

// MarkNodeDirty records an out-of-band node mutation (metadata flags set
// directly on the *Node) so the next Delta carries it.
func (g *Graph) MarkNodeDirty(id NodeID) {
	if id >= 0 && int(id) < len(g.nodes) {
		g.dirtyNodes[id] = struct{}{}
	}
}

// Lookup returns the node for the named class and whether it exists.
func (g *Graph) Lookup(name string) (*Node, bool) {
	id, ok := g.byName[name]
	if !ok {
		return nil, false
	}
	return g.nodes[id], true
}

// Node returns the node with the given ID. It returns nil if the ID is out
// of range.
func (g *Graph) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil
	}
	return g.nodes[id]
}

// Nodes returns the nodes in ID order. The returned slice is shared; treat
// it as read-only.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Edge returns the edge between a and b, or nil if no interaction has been
// recorded.
func (g *Graph) Edge(a, b NodeID) *Edge {
	return g.edges[makeEdgeKey(a, b)]
}

// Edges returns all edges in deterministic (A, B) order. The returned
// slice is cached and shared — treat it as read-only, like Nodes. The
// cache survives counter updates and is rebuilt only after a new class
// pair interacts for the first time.
func (g *Graph) Edges() []*Edge {
	if g.sortedOK && len(g.sorted) == len(g.edges) {
		return g.sorted
	}
	// Rebuild into a fresh slice: earlier callers may still hold the old
	// one, and rebuilding in place would scramble their view.
	out := make([]*Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	g.sorted = out
	g.sortedOK = true
	return out
}

// EdgesFunc calls yield for every edge in unspecified order, without
// allocating or sorting. Hot paths whose per-edge work commutes (matrix
// fills, counter sums) should prefer it over Edges.
func (g *Graph) EdgesFunc(yield func(*Edge)) {
	for _, e := range g.edges {
		yield(e)
	}
}

func (g *Graph) edge(a, b NodeID) *Edge {
	k := makeEdgeKey(a, b)
	e, ok := g.edges[k]
	if !ok {
		e = &Edge{A: k.A, B: k.B}
		g.edges[k] = e
		g.sortedOK = false
	}
	g.dirtyEdges[k] = struct{}{}
	return e
}

// AddInvocation records a method invocation from class a to class b
// transferring the given number of parameter/return bytes. Intra-class
// interactions are not recorded (paper §5.1: "Information is recorded only
// for interactions between two different classes").
func (g *Graph) AddInvocation(a, b NodeID, bytes int64) {
	g.AddEdgeDelta(a, b, 1, 0, bytes)
}

// AddAccess records a data-field access from class a to class b transferring
// the given number of bytes.
func (g *Graph) AddAccess(a, b NodeID, bytes int64) {
	g.AddEdgeDelta(a, b, 0, 1, bytes)
}

// AddEdgeDelta merges a batch of interactions between classes a and b in
// one step: inv invocations and acc accesses transferring bytes in total.
// The monitor drains its ingest delta through this entry point, paying
// the edge lookup and dirty marking once per touched edge per flush
// instead of once per event.
func (g *Graph) AddEdgeDelta(a, b NodeID, inv, acc, bytes int64) {
	if a == b || (inv == 0 && acc == 0 && bytes == 0) {
		return
	}
	e := g.edge(a, b)
	e.Invocations += inv
	e.Accesses += acc
	e.Bytes += bytes
}

// AddObject records the creation of an object of the class with the given
// size in bytes.
func (g *Graph) AddObject(id NodeID, size int64) {
	n := g.nodes[id]
	n.Memory += size
	n.LiveObjects++
	n.TotalObjects++
	if n.Memory > n.PeakMemory {
		n.PeakMemory = n.Memory
	}
	g.dirtyNodes[id] = struct{}{}
}

// RemoveObject records the deletion (collection) of an object of the class
// with the given size in bytes.
func (g *Graph) RemoveObject(id NodeID, size int64) {
	n := g.nodes[id]
	n.Memory -= size
	n.LiveObjects--
	g.dirtyNodes[id] = struct{}{}
}

// AddNodeDelta merges a window of object-lifecycle and CPU attribution
// for one class: mem/live/total are net deltas, peakRise is the maximum
// prefix sum of the window's memory deltas (so the true intra-window peak
// survives batching), cpu is attributed self time.
func (g *Graph) AddNodeDelta(id NodeID, mem, live, total, peakRise int64, cpu time.Duration) {
	n := g.nodes[id]
	if p := n.Memory + peakRise; p > n.PeakMemory {
		n.PeakMemory = p
	}
	n.Memory += mem
	n.LiveObjects += live
	n.TotalObjects += total
	n.CPUTime += cpu
	g.dirtyNodes[id] = struct{}{}
}

// AddCPU attributes self execution time to the class (paper Figure 9).
func (g *Graph) AddCPU(id NodeID, d time.Duration) {
	g.nodes[id].CPUTime += d
	g.dirtyNodes[id] = struct{}{}
}

// TotalMemory returns the memory occupied by live objects across all
// classes.
func (g *Graph) TotalMemory() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.Memory
	}
	return total
}

// TotalCPU returns the total attributed CPU time across all classes.
func (g *Graph) TotalCPU() time.Duration {
	var total time.Duration
	for _, n := range g.nodes {
		total += n.CPUTime
	}
	return total
}

// Clone returns a deep copy of the graph. Partitioning runs against a clone
// so that monitoring can continue concurrently. The clone starts a fresh
// delta lineage: everything is dirty and its epoch is zero, so a first
// Delta pull sees the full content. Nodes and edges are copied into one
// slab each, not one allocation apiece.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		nodes:      make([]*Node, len(g.nodes)),
		byName:     make(map[string]NodeID, len(g.byName)),
		edges:      make(map[EdgeKey]*Edge, len(g.edges)),
		dirtyNodes: make(map[NodeID]struct{}, len(g.nodes)),
		dirtyEdges: make(map[EdgeKey]struct{}, len(g.edges)),
	}
	nodes := make([]Node, len(g.nodes))
	for i, n := range g.nodes {
		nodes[i] = *n
		c.nodes[i] = &nodes[i]
		c.byName[n.Name] = n.ID
		c.dirtyNodes[n.ID] = struct{}{}
	}
	edges := make([]Edge, 0, len(g.edges))
	for k, e := range g.edges {
		edges = append(edges, *e)
		c.edges[k] = &edges[len(edges)-1]
		c.dirtyEdges[k] = struct{}{}
	}
	return c
}

// Delta is the changed part of a graph since an epoch: value copies of
// every touched node and edge, safe to hand to a partitioner while the
// graph keeps mutating. When Full is set the receiver's state was not
// continuable from the caller's epoch (first pull or competing consumer)
// and Nodes/Edges carry the entire graph.
type Delta struct {
	// Epoch identifies this delta; pass it to the next Delta call to
	// continue the lineage.
	Epoch int64

	// Full reports that Nodes/Edges are complete, not incremental.
	Full bool

	// N is the total node count at the snapshot (vertex IDs are dense,
	// so this sizes the partitioner's matrix).
	N int

	// Nodes and Edges are value copies in deterministic order (Nodes by
	// ID, Edges by (A, B)).
	Nodes []Node
	Edges []Edge
}

// Epoch returns the number of Delta pulls consumed so far.
func (g *Graph) Epoch() int64 { return g.epoch }

// Delta returns everything that changed since the given epoch and opens a
// new one. A caller that passes the Epoch of the delta it last consumed
// receives only the touched nodes/edges — O(changed) — with Full=false; a
// caller that is out of lineage (wrong epoch) receives the whole graph
// with Full=true. Either way the dirty sets reset, so a single consumer
// drives the lineage; concurrent consumers should each work from Clone.
func (g *Graph) Delta(since int64) Delta {
	d := Delta{N: len(g.nodes)}
	if since != g.epoch {
		d.Full = true
		d.Nodes = make([]Node, len(g.nodes))
		for i, n := range g.nodes {
			d.Nodes[i] = *n
		}
		d.Edges = make([]Edge, 0, len(g.edges))
		for _, e := range g.edges {
			d.Edges = append(d.Edges, *e)
		}
	} else {
		d.Nodes = make([]Node, 0, len(g.dirtyNodes))
		for id := range g.dirtyNodes {
			d.Nodes = append(d.Nodes, *g.nodes[id])
		}
		sort.Slice(d.Nodes, func(i, j int) bool { return d.Nodes[i].ID < d.Nodes[j].ID })
		d.Edges = make([]Edge, 0, len(g.dirtyEdges))
		for k := range g.dirtyEdges {
			d.Edges = append(d.Edges, *g.edges[k])
		}
	}
	sort.Slice(d.Edges, func(i, j int) bool {
		if d.Edges[i].A != d.Edges[j].A {
			return d.Edges[i].A < d.Edges[j].A
		}
		return d.Edges[i].B < d.Edges[j].B
	})
	clear(g.dirtyNodes)
	clear(g.dirtyEdges)
	g.epoch++
	d.Epoch = g.epoch
	return d
}

// WeightFunc maps an edge to the weight used by partitioning. The paper's
// cost function, and the only one in use, is BytesWeight: the historical
// amount of information transferred.
type WeightFunc func(*Edge) float64

// BytesWeight weights edges by total bytes transferred (the paper's §3.3
// cost function).
func BytesWeight(e *Edge) float64 { return float64(e.Bytes) }

// CutWeight returns the total weight of edges crossing the cut defined by
// inA: edges with exactly one endpoint x for which inA(x) is true.
func (g *Graph) CutWeight(inA func(NodeID) bool, w WeightFunc) float64 {
	var total float64
	for _, e := range g.edges {
		if inA(e.A) != inA(e.B) {
			total += w(e)
		}
	}
	return total
}

// CutBytes returns the historical bytes crossing the cut, used to predict
// the network bandwidth a partitioning would consume.
func (g *Graph) CutBytes(inA func(NodeID) bool) int64 {
	var total int64
	for _, e := range g.edges {
		if inA(e.A) != inA(e.B) {
			total += e.Bytes
		}
	}
	return total
}

// DOT renders the graph in Graphviz format, used to visualize Figure 5
// style execution graphs. Nodes in offloaded (may be nil) render as boxes;
// cut edges render dotted, matching the paper's Figure 5b convention.
func (g *Graph) DOT(offloaded map[NodeID]bool) string {
	var b strings.Builder
	b.WriteString("graph execution {\n")
	for _, n := range g.nodes {
		shape := "ellipse"
		if offloaded[n.ID] {
			shape = "box"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", n.ID, fmt.Sprintf("%s\\n%dB", n.Name, n.Memory), shape)
	}
	for _, e := range g.Edges() {
		style := "solid"
		if offloaded[e.A] != offloaded[e.B] {
			style = "dotted"
		}
		fmt.Fprintf(&b, "  n%d -- n%d [label=\"%d/%dB\" style=%s];\n", e.A, e.B, e.Interactions(), e.Bytes, style)
	}
	b.WriteString("}\n")
	return b.String()
}
