package mincut

import (
	"time"

	"aide/internal/graph"
	"aide/internal/telemetry"
)

// FromGraph converts an execution graph into a dense partitioning input
// using the given edge-weight function. Node IDs map one-to-one onto vertex
// indices.
func FromGraph(g *graph.Graph, w graph.WeightFunc) Input {
	var s Scratch
	return s.FromGraph(g, w)
}

// Scratch holds reusable partitioning buffers for a repartition hot loop:
// the emulator and the client rebuild an Input from successively larger
// snapshots of the same execution graph on every (re)partitioning. A
// Scratch amortizes the N×N weight matrix, the pinned slice, the graph's
// adjacency and the heuristic's connectivity heap across calls, and —
// because its Inputs are built by construction symmetric and
// non-negative — skips the O(N²) Input.Validate re-check.
//
// A Scratch is not safe for concurrent use, and an Input returned by
// FromGraph aliases the scratch buffers: it is valid only until the next
// FromGraph call on the same Scratch. Candidate slices returned by the
// heuristics are freshly allocated and safe to retain.
type Scratch struct {
	in    Input
	adj   adjacency // in's nonzero cells, as the last FromGraph wrote them
	tmp   adjacency // FromGraph's unsorted rows; a foreign Input's rows
	edges []edge    // the nonzero edges the last FromGraph wrote
	fill  []int32   // per-row write cursors for FromGraph
	order order

	// Clock and Runtime, both set, time each Candidates run into the
	// histogram (partition-runtime telemetry). Clock is injectable —
	// never time.Now directly — so deterministic replays stay exact;
	// leaving either nil keeps the heuristic free of clock reads.
	Clock   func() time.Time
	Runtime *telemetry.Histogram
}

type edge struct {
	a, b int32
	w    float64
}

// FromGraph is FromGraph reusing this scratch's buffers. It costs O(N+E)
// for N classes and E edges, and builds the sorted adjacency Candidates
// walks alongside the matrix.
func (s *Scratch) FromGraph(g *graph.Graph, w graph.WeightFunc) Input {
	in := &s.in
	for _, e := range s.edges {
		in.Weight[e.a][e.b], in.Weight[e.b][e.a] = 0, 0
	}
	n := g.Len()
	in.N = n
	if cap(in.Weight) < n {
		// Cells start zero; each fill clears only what the last one wrote.
		slab := make([]float64, n*n)
		in.Weight = make([][]float64, n)
		for i := range in.Weight {
			in.Weight[i] = slab[i*n : (i+1)*n : (i+1)*n]
		}
	}
	in.Weight = in.Weight[:n]
	for i := range in.Weight {
		in.Weight[i] = in.Weight[i][:n]
	}
	in.Pinned = resize(in.Pinned, n)
	for _, node := range g.Nodes() {
		in.Pinned[node.ID] = node.Pinned
	}

	// Lay each vertex's edges out in g's map order (tmp), then transpose
	// tmp into adj: appending u to its neighbours' rows for u ascending
	// leaves every row ascending, and the weights are symmetric.
	tmp := &s.tmp
	tmp.start = resize(tmp.start, n+1)
	s.edges = s.edges[:0]
	g.EdgesFunc(func(e *graph.Edge) {
		if x := w(e); x != 0 && e.A != e.B {
			s.edges = append(s.edges, edge{int32(e.A), int32(e.B), x})
			tmp.start[e.A+1]++
			tmp.start[e.B+1]++
		}
	})
	for v := 0; v < n; v++ {
		tmp.start[v+1] += tmp.start[v]
	}
	tmp.arcs = resize(tmp.arcs, int(tmp.start[n]))
	s.fill = append(s.fill[:0], tmp.start[:n]...)
	for _, e := range s.edges {
		tmp.arcs[s.fill[e.a]] = arc{e.b, e.w}
		tmp.arcs[s.fill[e.b]] = arc{e.a, e.w}
		s.fill[e.a]++
		s.fill[e.b]++
	}
	s.adj.start = append(s.adj.start[:0], tmp.start...)
	s.adj.arcs = resize(s.adj.arcs, len(tmp.arcs))
	s.fill = append(s.fill[:0], tmp.start[:n]...)
	for u := 0; u < n; u++ {
		for _, a := range tmp.row(u) {
			s.adj.arcs[s.fill[a.to]] = arc{int32(u), a.w}
			s.fill[a.to]++
			in.Weight[a.to][u] = a.w
		}
	}
	return s.in
}

// Candidates runs the modified MINCUT heuristic, skipping
// re-validation, on the input this scratch's FromGraph last returned;
// any other input pays an O(N²) read of its matrix first.
func (s *Scratch) Candidates(in Input) ([]Candidate, error) {
	adj := &s.adj
	built := in.N == s.in.N && len(adj.start) == in.N+1 && (in.N == 0 || &in.Weight[0] == &s.in.Weight[0])
	if !built {
		s.tmp.fromDense(in)
		adj = &s.tmp
	}
	if s.Clock != nil && s.Runtime != nil {
		defer func(start time.Time) { s.Runtime.Observe(s.Clock().Sub(start)) }(s.Clock())
	}
	return candidates(in, adj, &s.order)
}

// GreedyDensityCandidates runs the greedy memory-density heuristic on an
// input built by this scratch's FromGraph, skipping re-validation.
func (s *Scratch) GreedyDensityCandidates(in Input, memory []int64) ([]Candidate, error) {
	return greedyDensityCandidates(in, memory)
}

// RefineKL runs the Kernighan–Lin swap refinement on an input built by
// this scratch's FromGraph, skipping re-validation.
func (s *Scratch) RefineKL(in Input, inClient []bool) ([]bool, float64, error) {
	return refineKL(in, inClient)
}
