package mincut

import (
	"aide/internal/graph"
)

// Incremental maintains a dense partitioning input across graph deltas
// and re-derives candidate partitionings in O(changed edges) instead of
// a full pass: the weight matrix persists between repartitions and only
// cells named by the delta are rewritten, and the heuristic warm-starts
// from the previously committed partition with local refinement around
// dirty vertices. When the dirty fraction exceeds Threshold — or there
// is no committed partition to refine — it falls back to the full
// modified MINCUT pass over the maintained matrix, which is equivalent
// by construction to a from-scratch run (the matrix is kept byte-equal
// to a fresh Scratch.FromGraph).
//
// The intended loop is single-consumer, mirroring graph.Delta's lineage
// contract:
//
//	d := mon.Delta(inc.Epoch())
//	inc.Update(d, weight)
//	cands, _ := inc.Candidates()
//	...policy picks one...
//	inc.Commit(chosen)
//
// An Incremental is not safe for concurrent use.
type Incremental struct {
	// Scratch supplies the persistent matrix, the heuristic's scratch
	// buffers, and the optional Clock/Runtime telemetry pair (both warm
	// and fallback passes observe into the partition-runtime histogram).
	Scratch

	// Threshold is the dirty-edge fraction above which Candidates runs
	// the full pass instead of local refinement. Zero means the default
	// (0.2); negative forces the full pass every time (the equivalence
	// valve used by tests and conservative callers).
	Threshold float64

	epoch     int64
	prev      []bool // committed partition (true = stays on client)
	havePrev  bool
	cut       float64 // maintained cut weight of prev
	offloaded int

	edges      int // distinct class pairs with nonzero weight
	dirtyMark  []bool
	frontier   []int // dirty vertices since last Commit, deduped
	dirtyEdges int
	forceFull  bool // set by Full resyncs until the next full pass
	lastFull   bool
}

// defaultThreshold is the dirty-edge fraction beyond which local
// refinement stops paying for itself and the full pass runs instead.
const defaultThreshold = 0.2

// Epoch returns the graph epoch of the last applied delta; pass it to
// Graph.Delta (or Monitor.Delta) to pull the next increment.
func (inc *Incremental) Epoch() int64 { return inc.epoch }

// WasFull reports whether the most recent Candidates call took the full
// fallback pass rather than warm refinement (diagnostics and tests).
func (inc *Incremental) WasFull() bool { return inc.lastFull }

// N returns the current vertex count of the maintained input.
func (inc *Incremental) N() int { return inc.in.N }

// grow extends the maintained matrix and per-vertex state to n vertices,
// zeroing only the new cells. Vertices never disappear (class IDs are
// dense and stable), so shrink never happens.
func (inc *Incremental) grow(n int) {
	if n <= inc.in.N {
		return
	}
	old := inc.in.N
	in := &inc.in
	if cap(in.Weight) < n {
		rows := make([][]float64, n)
		copy(rows, in.Weight)
		in.Weight = rows
	} else {
		in.Weight = in.Weight[:n]
	}
	for i := 0; i < n; i++ {
		if cap(in.Weight[i]) < n {
			row := make([]float64, n)
			copy(row, in.Weight[i])
			in.Weight[i] = row
		} else {
			row := in.Weight[i][:n]
			for j := old; j < n; j++ {
				row[j] = 0
			}
			in.Weight[i] = row
		}
	}
	if cap(in.Pinned) < n {
		p := make([]bool, n)
		copy(p, in.Pinned)
		in.Pinned = p
	} else {
		in.Pinned = in.Pinned[:n]
		for i := old; i < n; i++ {
			in.Pinned[i] = false
		}
	}
	in.N = n

	for len(inc.prev) < n {
		// New classes default to the offload side until refinement or a
		// full pass places them; pinning is enforced before refinement.
		inc.prev = append(inc.prev, false)
		inc.offloaded++
	}
	for len(inc.dirtyMark) < n {
		inc.dirtyMark = append(inc.dirtyMark, false)
	}
}

// markDirty adds v to the refinement frontier.
func (inc *Incremental) markDirty(v int) {
	if !inc.dirtyMark[v] {
		inc.dirtyMark[v] = true
		inc.frontier = append(inc.frontier, v)
	}
}

// reset zeroes the maintained matrix for a Full resync.
func (inc *Incremental) reset() {
	for i := 0; i < inc.in.N; i++ {
		row := inc.in.Weight[i]
		for j := range row {
			row[j] = 0
		}
		inc.in.Pinned[i] = false
	}
	inc.edges = 0
	inc.forceFull = true
}

// Update applies one graph delta to the maintained input. Cells not
// named by the delta are untouched — O(changed) work. The weight
// function must be the same across Updates (weights are recomputed only
// for changed edges).
func (inc *Incremental) Update(d graph.Delta, w graph.WeightFunc) {
	if d.Full {
		inc.grow(d.N)
		inc.reset()
	}
	inc.grow(d.N)
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		v := int(nd.ID)
		inc.in.Pinned[v] = nd.Pinned
		inc.markDirty(v)
	}
	for i := range d.Edges {
		e := &d.Edges[i]
		a, b := int(e.A), int(e.B)
		old := inc.in.Weight[a][b]
		nw := w(e)
		if old == 0 && nw != 0 {
			inc.edges++
		}
		inc.in.Weight[a][b] = nw
		inc.in.Weight[b][a] = nw
		if inc.havePrev && inc.prev[a] != inc.prev[b] {
			inc.cut += nw - old
		}
		inc.markDirty(a)
		inc.markDirty(b)
		inc.dirtyEdges++
	}
	inc.epoch = d.Epoch
}

// threshold resolves the fallback threshold.
func (inc *Incremental) threshold() float64 {
	if inc.Threshold == 0 {
		return defaultThreshold
	}
	return inc.Threshold
}

// Candidates derives candidate partitionings from the maintained input.
// With a committed partition and a dirty fraction at or below Threshold
// it refines locally around dirty vertices (O(dirty·N)); otherwise it
// runs the full modified MINCUT pass (O(N²) to read the matrix), whose
// result is identical to a from-scratch Candidates call on the same graph.
func (inc *Incremental) Candidates() ([]Candidate, error) {
	if inc.in.N == 0 {
		return nil, ErrNoVertices
	}
	if inc.Clock != nil && inc.Runtime != nil {
		t0 := inc.Clock()
		defer func() { inc.Runtime.Observe(inc.Clock().Sub(t0)) }()
	}

	frac := 1.0
	if inc.edges > 0 {
		frac = float64(inc.dirtyEdges) / float64(inc.edges)
	}
	if !inc.havePrev || inc.forceFull || frac > inc.threshold() {
		inc.lastFull = true
		inc.tmp.fromDense(inc.in)
		cands, err := candidates(inc.in, &inc.tmp, &inc.order)
		if err == nil {
			inc.forceFull = false
		}
		return cands, err
	}
	inc.lastFull = false
	return []Candidate{inc.refine()}, nil
}

// refine performs greedy improving single-vertex moves around the dirty
// frontier on a working copy of the committed partition. Moving v across
// the cut turns its crossing weight ext into internal weight and its
// internal weight int into crossing weight, so the gain is ext−int; only
// strictly improving moves apply, pinned vertices never leave the
// client, and each applied move enqueues the vertex's neighbors (within
// a bounded budget) so improvements propagate without touching clean
// regions.
func (inc *Incremental) refine() Candidate {
	cur := cloneBools(inc.prev)
	cut := inc.cut
	off := inc.offloaded

	// Pinned vertices must be on the client regardless of history.
	for _, v := range inc.frontier {
		if inc.in.Pinned[v] && !cur[v] {
			ext, internal := inc.sideConn(cur, v)
			cur[v] = true
			cut += internal - ext
			off--
		}
	}

	queue := append([]int(nil), inc.frontier...)
	queued := make(map[int]bool, len(queue))
	for _, v := range queue {
		queued[v] = true
	}
	budget := 4*len(inc.frontier) + 16
	for i := 0; i < len(queue) && budget > 0; i++ {
		v := queue[i]
		queued[v] = false
		if inc.in.Pinned[v] && cur[v] {
			continue // pinned: may not leave the client
		}
		ext, internal := inc.sideConn(cur, v)
		gain := ext - internal
		if gain <= 0 {
			continue
		}
		if cur[v] {
			off++
		} else {
			off--
		}
		cur[v] = !cur[v]
		cut -= gain
		budget--
		// The move changes neighbors' ext/int balance: requeue them.
		row := inc.in.Weight[v]
		for u := 0; u < inc.in.N; u++ {
			if u != v && row[u] != 0 && !queued[u] {
				queued[u] = true
				queue = append(queue, u)
			}
		}
	}
	return Candidate{InClient: cur, CutWeight: cut, Offloaded: off}
}

// sideConn returns v's total edge weight crossing the cut (ext) and
// staying on v's side (internal) under membership cur. One O(N) row
// scan.
func (inc *Incremental) sideConn(cur []bool, v int) (ext, internal float64) {
	row := inc.in.Weight[v]
	side := cur[v]
	for u := 0; u < inc.in.N; u++ {
		if u == v || row[u] == 0 {
			continue
		}
		if cur[u] == side {
			internal += row[u]
		} else {
			ext += row[u]
		}
	}
	return ext, internal
}

// Commit records the candidate the policy selected as the new baseline
// partition and clears the dirty frontier. O(N).
func (inc *Incremental) Commit(c Candidate) {
	if len(c.InClient) != inc.in.N {
		return // stale candidate from before a growth step: ignore
	}
	inc.prev = cloneBools(c.InClient)
	inc.cut = c.CutWeight
	inc.offloaded = c.Offloaded
	inc.havePrev = true
	for _, v := range inc.frontier {
		inc.dirtyMark[v] = false
	}
	inc.frontier = inc.frontier[:0]
	inc.dirtyEdges = 0
}
