// Package mincut implements graph partitioning for AIDE (paper §3.3).
//
// It provides the classic Stoer–Wagner global minimum cut [Stoer & Wagner,
// JACM 44(4), 1997] and the paper's modified heuristic, which seeds the
// client partition with every class that cannot be offloaded (native
// methods, static data) and then emits a family of approximate minimum-cut
// candidate partitionings for the partitioning policy to evaluate.
//
// The heuristic walks the E nonzero edges, not the N×N matrix: a pass
// costs O((N+E) log N) plus an N × count slab of memberships.
package mincut

import (
	"errors"
	"fmt"
	"math"
)

// Input is a dense, undirected, weighted graph together with the set of
// vertices pinned to the client partition.
type Input struct {
	// N is the number of vertices, numbered 0..N-1.
	N int

	// Weight is the symmetric N×N edge-weight matrix. Weight[i][i] is
	// ignored. Weights must be non-negative.
	Weight [][]float64

	// Pinned marks vertices that must remain in the client partition
	// (classes with native methods or host-specific static data).
	Pinned []bool
}

// Validate reports whether the input is well formed.
func (in Input) Validate() error {
	if in.N < 0 {
		return fmt.Errorf("mincut: negative vertex count %d", in.N)
	}
	if len(in.Weight) != in.N {
		return fmt.Errorf("mincut: weight matrix has %d rows, want %d", len(in.Weight), in.N)
	}
	for i, row := range in.Weight {
		if len(row) != in.N {
			return fmt.Errorf("mincut: weight row %d has %d columns, want %d", i, len(row), in.N)
		}
		for j, w := range row {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("mincut: invalid weight %v at (%d,%d)", w, i, j)
			}
			if in.Weight[j][i] != w {
				return fmt.Errorf("mincut: weight matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if in.Pinned != nil && len(in.Pinned) != in.N {
		return fmt.Errorf("mincut: pinned has %d entries, want %d", len(in.Pinned), in.N)
	}
	return nil
}

// Candidate is one intermediate partitioning produced by the modified
// MINCUT heuristic. InClient[v] reports whether vertex v stays on the
// client; the complement is the offload set.
type Candidate struct {
	InClient []bool

	// CutWeight is the total weight of edges crossing the partition: the
	// predicted interaction cost of this placement.
	CutWeight float64

	// Offloaded is the number of vertices in the offload (surrogate) set.
	Offloaded int
}

// ErrNoVertices is returned when an empty graph is partitioned.
var ErrNoVertices = errors.New("mincut: graph has no vertices")

// Candidates runs the paper's modified Stoer–Wagner heuristic.
//
// The heuristic places all pinned vertices in the client partition, then
// repeatedly moves the vertex of the offload partition with the greatest
// connectivity to the client partition, recording every intermediate
// partitioning. The first candidate offloads everything that is not pinned;
// the last offloads a single vertex. The partitioning policy evaluates all
// candidates and selects the one that best satisfies the overall policy,
// which is not necessarily the one with the minimum interaction cost.
//
// If no vertex is pinned, the first candidate offloads everything, and the
// vertex of greatest total weight seeds the client partition, as in the
// original Stoer–Wagner minimum-cut-phase construction.
//
// Past Validate's O(N²), it costs O((N+E) log N) for E nonzero edges,
// plus the N × count slab every candidate's InClient is a row of.
func Candidates(in Input) ([]Candidate, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var adj adjacency
	adj.fromDense(in)
	return candidates(in, &adj, &order{})
}

// adjacency holds an input's nonzero off-diagonal weights in compressed
// rows: row v is arcs[start[v]:start[v+1]], ascending by neighbour.
type adjacency struct {
	start []int32
	arcs  []arc
}

type arc struct {
	to int32
	w  float64
}

func (a *adjacency) row(v int) []arc { return a.arcs[a.start[v]:a.start[v+1]] }

// fromDense derives a from in's rows in one O(N²) scan.
func (a *adjacency) fromDense(in Input) {
	a.start, a.arcs = append(a.start[:0], 0), a.arcs[:0]
	for v, row := range in.Weight[:in.N] {
		for u, w := range row {
			if w != 0 && u != v {
				a.arcs = append(a.arcs, arc{int32(u), w})
			}
		}
		a.start = append(a.start, int32(len(a.arcs)))
	}
}

// order is an indexed max-heap of offload-side vertices by (conn desc,
// vertex asc): its root is what a dense `conn[v] > bestConn` scan picks.
type order struct {
	conn []float64
	at   []int32 // vertices in heap order
	pos  []int32 // pos[v] is v's index in at
}

func (h *order) above(i, j int) bool {
	a, b := h.at[i], h.at[j]
	return h.conn[a] > h.conn[b] || h.conn[a] == h.conn[b] && a < b
}

// sift moves slot i up past the parents it outranks (an insertion, a
// raised conn), then down past the children that outrank it (a new root).
func (h *order) sift(i int) {
	for i > 0 && h.above(i, (i-1)/2) {
		i = h.swap(i, (i-1)/2)
	}
	for c := 2*i + 1; c < len(h.at); c = 2*i + 1 {
		if c+1 < len(h.at) && h.above(c+1, c) {
			c++
		}
		if !h.above(c, i) {
			return
		}
		i = h.swap(i, c)
	}
}

// swap exchanges heap slots i and j and returns j.
func (h *order) swap(i, j int) int {
	h.at[i], h.at[j] = h.at[j], h.at[i]
	h.pos[h.at[i]], h.pos[h.at[j]] = int32(i), int32(j)
	return j
}

// candidates is the heuristic core of Candidates, Scratch.Candidates and
// Incremental's full pass, over a validated input whose nonzero cells adj
// lists. It adds a dense scan's nonzero terms in the scan's (ascending)
// order, so every sum is bit-identical to the scan's: x + 0 is x.
func candidates(in Input, adj *adjacency, h *order) ([]Candidate, error) {
	n := in.N
	if n == 0 {
		return nil, ErrNoVertices
	}
	pinned := 0
	for _, p := range in.Pinned {
		if p {
			pinned++
		}
	}
	count := max(n-max(pinned, 1), 1)
	if pinned == 0 {
		count++
	}
	slab := make([]bool, count*n)
	row := func(k int) []bool { return slab[k*n : (k+1)*n : (k+1)*n] }
	cands := make([]Candidate, 0, count)
	cur, clientN := row(0), pinned
	if pinned > 0 {
		copy(cur, in.Pinned)
	} else {
		// Nothing is pinned: offloading everything is itself a valid
		// partitioning (the whole application runs on the surrogate), and
		// the maximum-adjacency ordering seeds from the best-connected
		// vertex, as in the original Stoer–Wagner phase.
		cands = append(cands, Candidate{InClient: cur, Offloaded: n})
		seed, best := 0, -1.0
		for v := 0; v < n; v++ {
			var total float64
			for _, a := range adj.row(v) {
				total += a.w
			}
			if total > best {
				seed, best = v, total
			}
		}
		cur, clientN = row(1), 1
		cur[seed] = true
	}
	if clientN == n {
		// Everything (that remains) is in the client partition: the only
		// further candidate offloads nothing.
		return append(cands, Candidate{InClient: cur}), nil
	}

	// conn[v] = total weight between v and the current client partition.
	h.conn, h.pos, h.at = resize(h.conn, n), resize(h.pos, n), h.at[:0]
	var cut float64
	for v := 0; v < n; v++ {
		if cur[v] {
			continue
		}
		for _, a := range adj.row(v) {
			if cur[a.to] {
				h.conn[v] += a.w
			}
		}
		cut += h.conn[v]
		h.pos[v], h.at = int32(len(h.at)), append(h.at, int32(v))
		h.sift(len(h.at) - 1)
	}
	cands = append(cands, Candidate{InClient: cur, CutWeight: cut, Offloaded: n - clientN})

	for n-clientN > 1 {
		// Move the most-connected offload vertex into the client partition.
		best := int(h.at[0])
		last := h.swap(0, len(h.at)-1)
		h.at = h.at[:last]
		h.sift(0)
		cur = append(row(len(cands))[:0], cur...)
		cur[best] = true
		clientN++
		cut -= h.conn[best]
		for _, a := range adj.row(best) {
			if !cur[a.to] {
				h.conn[a.to] += a.w
				cut += a.w
				h.sift(int(h.pos[a.to]))
			}
		}
		cands = append(cands, Candidate{InClient: cur, CutWeight: cut, Offloaded: n - clientN})
	}
	return cands, nil
}

// resize returns s with length n and every element zero, reusing its
// array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// GlobalMinCut computes the exact global minimum cut of the weighted graph
// using the Stoer–Wagner algorithm. It returns one side of the minimum cut
// (as a membership slice over the original vertices) and its weight. Pinning
// is ignored; this is the reference algorithm the paper's heuristic derives
// from, used here for validation and as an ablation baseline.
func GlobalMinCut(n int, weight [][]float64) ([]bool, float64, error) {
	in := Input{N: n, Weight: weight}
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	if n == 0 {
		return nil, 0, ErrNoVertices
	}
	if n == 1 {
		return []bool{true}, 0, nil
	}

	// w is mutated as vertices merge; groups[i] lists original vertices
	// merged into contracted vertex i.
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		copy(w[i], weight[i])
	}
	groups := make([][]int, n)
	active := make([]int, n)
	for i := 0; i < n; i++ {
		groups[i] = []int{i}
		active[i] = i
	}

	bestWeight := math.Inf(1)
	var bestSide []int

	for len(active) > 1 {
		// Minimum cut phase: maximum adjacency ordering over active
		// vertices starting from active[0].
		added := map[int]bool{active[0]: true}
		conn := make(map[int]float64, len(active))
		for _, v := range active[1:] {
			conn[v] = w[v][active[0]]
		}
		order := []int{active[0]}
		for len(order) < len(active) {
			best, bestConn := -1, math.Inf(-1)
			for _, v := range active {
				if !added[v] && conn[v] > bestConn {
					best, bestConn = v, conn[v]
				}
			}
			added[best] = true
			order = append(order, best)
			for _, v := range active {
				if !added[v] {
					conn[v] += w[v][best]
				}
			}
		}

		s, t := order[len(order)-2], order[len(order)-1]
		cutOfPhase := conn[t]
		if cutOfPhase < bestWeight {
			bestWeight = cutOfPhase
			bestSide = append([]int(nil), groups[t]...)
		}

		// Merge t into s.
		groups[s] = append(groups[s], groups[t]...)
		for _, v := range active {
			if v != s && v != t {
				w[s][v] += w[t][v]
				w[v][s] = w[s][v]
			}
		}
		keep := active[:0]
		for _, v := range active {
			if v != t {
				keep = append(keep, v)
			}
		}
		active = keep
	}

	side := make([]bool, n)
	for _, v := range bestSide {
		side[v] = true
	}
	return side, bestWeight, nil
}

// CutWeight computes the weight of the cut defined by the membership slice.
func CutWeight(n int, weight [][]float64, inA []bool) float64 {
	var total float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if inA[i] != inA[j] {
				total += weight[i][j]
			}
		}
	}
	return total
}

func cloneBools(b []bool) []bool {
	out := make([]bool, len(b))
	copy(out, b)
	return out
}
