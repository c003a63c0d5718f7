package mincut

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"aide/internal/graph"
)

// referenceCandidates is the dense modified MINCUT core the sparse one
// replaced, frozen: it scans all N vertices on every step. The sparse
// core must reproduce it bit for bit.
func referenceCandidates(in Input) ([]Candidate, error) {
	if in.N == 0 {
		return nil, ErrNoVertices
	}

	inClient := make([]bool, in.N)
	clientN := 0
	for v := 0; v < in.N; v++ {
		if in.Pinned != nil && in.Pinned[v] {
			inClient[v] = true
			clientN++
		}
	}
	var candidates []Candidate
	if clientN == 0 {
		// Nothing is pinned: offloading everything is itself a valid
		// partitioning (the whole application runs on the surrogate), and
		// the maximum-adjacency ordering seeds from the best-connected
		// vertex, as in the original Stoer–Wagner phase.
		candidates = append(candidates, Candidate{
			InClient:  make([]bool, in.N),
			CutWeight: 0,
			Offloaded: in.N,
		})
		seed, best := 0, -1.0
		for v := 0; v < in.N; v++ {
			var total float64
			for u := 0; u < in.N; u++ {
				if u != v {
					total += in.Weight[v][u]
				}
			}
			if total > best {
				seed, best = v, total
			}
		}
		inClient[seed] = true
		clientN = 1
	}
	if clientN == in.N {
		// Everything (that remains) is in the client partition: the only
		// further candidate offloads nothing.
		candidates = append(candidates, Candidate{InClient: cloneBools(inClient), Offloaded: 0})
		return candidates, nil
	}

	// conn[v] = total weight between v and the current client partition.
	conn := make([]float64, in.N)
	var cut float64
	for v := 0; v < in.N; v++ {
		if inClient[v] {
			continue
		}
		for u := 0; u < in.N; u++ {
			if u != v && inClient[u] {
				conn[v] += in.Weight[v][u]
			}
		}
		cut += conn[v]
	}

	record := func() {
		candidates = append(candidates, Candidate{
			InClient:  cloneBools(inClient),
			CutWeight: cut,
			Offloaded: in.N - clientN,
		})
	}
	record() // offload everything that is not pinned

	for in.N-clientN > 1 {
		// Move the most-connected offload vertex into the client partition.
		best, bestConn := -1, math.Inf(-1)
		for v := 0; v < in.N; v++ {
			if !inClient[v] && conn[v] > bestConn {
				best, bestConn = v, conn[v]
			}
		}
		inClient[best] = true
		clientN++
		cut -= conn[best]
		for v := 0; v < in.N; v++ {
			if !inClient[v] && v != best {
				w := in.Weight[v][best]
				conn[v] += w
				cut += w
			}
		}
		record()
	}
	return candidates, nil
}

// matchReference checks every path to the heuristic against
// referenceCandidates on the dense input (w, pinned): package-level
// Candidates, sc's FromGraph + Candidates on a graph carrying w, and
// Incremental's full pass on that graph's delta.
func matchReference(t *testing.T, where string, sc *Scratch, w [][]float64, pinned []bool) {
	t.Helper()
	n := len(w)
	in := Input{N: n, Weight: w, Pinned: pinned}
	want, err := referenceCandidates(in)
	if err != nil {
		t.Fatalf("%s: reference: %v", where, err)
	}

	g := graph.New()
	for v := 0; v < n; v++ {
		g.Intern(fmt.Sprint(v)).Pinned = pinned != nil && pinned[v]
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if w[a][b] != 0 || (a+b)%3 == 0 { // some edges weigh zero
				g.AddInvocation(graph.NodeID(a), graph.NodeID(b), 1)
			}
		}
	}
	weight := func(e *graph.Edge) float64 { return w[e.A][e.B] }

	got, err := Candidates(in)
	if err != nil {
		t.Fatalf("%s: Candidates: %v", where, err)
	}
	sameBits(t, where+" Candidates", got, want)

	built := sc.FromGraph(g, weight)
	for a := range w {
		for b := range w[a] {
			if math.Float64bits(built.Weight[a][b]) != math.Float64bits(w[a][b]) {
				t.Fatalf("%s: Scratch.FromGraph weight[%d][%d] = %v, want %v", where, a, b, built.Weight[a][b], w[a][b])
			}
		}
	}
	if got, err = sc.Candidates(built); err != nil {
		t.Fatalf("%s: Scratch.Candidates: %v", where, err)
	}
	sameBits(t, where+" Scratch", got, want)

	inc := Incremental{Threshold: -1}
	inc.Update(g.Delta(inc.Epoch()), weight)
	if got, err = inc.Candidates(); err != nil {
		t.Fatalf("%s: Incremental: %v", where, err)
	}
	sameBits(t, where+" Incremental", got, want)
}

func sameBits(t *testing.T, where string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", where, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g.CutWeight) != math.Float64bits(w.CutWeight) || g.Offloaded != w.Offloaded {
			t.Fatalf("%s cand %d: cut %v (%#x), %d offloaded; want %v (%#x), %d", where, i,
				g.CutWeight, math.Float64bits(g.CutWeight), g.Offloaded,
				w.CutWeight, math.Float64bits(w.CutWeight), w.Offloaded)
		}
		if len(g.InClient) != len(w.InClient) {
			t.Fatalf("%s cand %d: %d vertices, want %d", where, i, len(g.InClient), len(w.InClient))
		}
		for v := range w.InClient {
			if g.InClient[v] != w.InClient[v] {
				t.Fatalf("%s cand %d: vertex %d in client %t, want %t", where, i, v, g.InClient[v], w.InClient[v])
			}
		}
	}
}

// TestCandidatesMatchReference compares the sparse core with the frozen
// dense one on random graphs full of ties and zeros, with integer or
// real weights spanning 2^±40 and no, some or all vertices pinned. One
// Scratch serves every graph, growing, shrinking and regrowing, so a
// cell a bigger fill left behind would show.
func TestCandidatesMatchReference(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	var sc Scratch
	sizes := []int{5, 40, 9, 60, 3, 60}
	for trial := 0; trial < 240; trial++ {
		n := 1 + r.Intn(80)
		if trial < len(sizes) {
			n = sizes[trial]
		}
		density := r.Float64()
		weight := func() float64 { return float64(r.Intn(4)) }
		switch trial % 3 {
		case 1:
			weight = func() float64 { return math.Ldexp(r.Float64(), r.Intn(81)-40) }
		case 2:
			weight = func() float64 { return math.Ldexp(float64(1+r.Intn(3)), r.Intn(81)-40) }
		}
		w := make([][]float64, n)
		for a := range w {
			w[a] = make([]float64, n)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if r.Float64() < density {
					w[a][b] = weight()
					w[b][a] = w[a][b]
				}
			}
		}
		var pinned []bool
		switch trial % 4 {
		case 1, 2:
			pinned = make([]bool, n)
			for v := range pinned {
				pinned[v] = r.Intn(5) == 0
			}
		case 3:
			pinned = make([]bool, n)
			for v := range pinned {
				pinned[v] = trial%8 == 3 || r.Intn(2) == 0
			}
		}
		matchReference(t, fmt.Sprintf("trial %d (n=%d)", trial, n), &sc, w, pinned)
	}
}

// FuzzCandidatesMatchReference decodes a small graph from the input —
// byte 0 the vertex count, then one pin bit per vertex, then one byte
// per pair, a weight (b&7)·2^(b>>3 − 16) — and compares every path to
// the heuristic with the dense reference.
func FuzzCandidatesMatchReference(f *testing.F) {
	f.Add([]byte{4, 0b0001, 9, 0, 17, 9, 200, 1})
	f.Add([]byte{7, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%24
		data = data[1:]
		at := func(i int) byte {
			if i < len(data) {
				return data[i]
			}
			return 0
		}
		pinned := make([]bool, n)
		for v := range pinned {
			pinned[v] = at(v/8)&(1<<(v%8)) != 0
		}
		next := (n + 7) / 8
		w := make([][]float64, n)
		for a := range w {
			w[a] = make([]float64, n)
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				x := at(next)
				next++
				w[a][b] = math.Ldexp(float64(x&7), int(x>>3)-16)
				w[b][a] = w[a][b]
			}
		}
		matchReference(t, fmt.Sprintf("n=%d", n), &Scratch{}, w, pinned)
	})
}
