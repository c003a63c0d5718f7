package mincut

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestGreedyDensityInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(10)
		w := randomGraph(r, n, 0.5, 40)
		pinned := make([]bool, n)
		mem := make([]int64, n)
		for v := 0; v < n; v++ {
			pinned[v] = r.Intn(4) == 0
			mem[v] = int64(r.Intn(1000))
		}
		cands, err := GreedyDensityCandidates(Input{N: n, Weight: w, Pinned: pinned}, mem)
		if err != nil {
			t.Fatal(err)
		}
		if len(cands) == 0 {
			t.Fatal("no candidates")
		}
		if cands[0].Offloaded != 0 {
			t.Fatal("first candidate must offload nothing")
		}
		for _, c := range cands {
			for v := 0; v < n; v++ {
				if pinned[v] && !c.InClient[v] {
					t.Fatal("pinned vertex offloaded")
				}
			}
			if math.Abs(c.CutWeight-CutWeight(n, w, c.InClient)) > 1e-6 {
				t.Fatalf("cut weight mismatch: %v vs %v", c.CutWeight, CutWeight(n, w, c.InClient))
			}
		}
		// The last candidate offloads every unpinned vertex.
		lastOff := cands[len(cands)-1].Offloaded
		unpinned := 0
		for v := 0; v < n; v++ {
			if !pinned[v] {
				unpinned++
			}
		}
		if lastOff != unpinned {
			t.Fatalf("final candidate offloads %d of %d unpinned", lastOff, unpinned)
		}
	}
}

func TestGreedyPrefersDenseMemory(t *testing.T) {
	// Vertex 1: lots of memory, light coupling. Vertex 2: no memory,
	// heavy coupling. Greedy must offload 1 first.
	w := [][]float64{
		{0, 1, 100},
		{1, 0, 0},
		{100, 0, 0},
	}
	mem := []int64{0, 1 << 20, 0}
	cands, err := GreedyDensityCandidates(Input{N: 3, Weight: w, Pinned: []bool{true, false, false}}, mem)
	if err != nil {
		t.Fatal(err)
	}
	// Candidate after the first move must offload vertex 1 only.
	first := cands[1]
	if first.InClient[1] || !first.InClient[2] {
		t.Fatalf("first greedy move = %v, want vertex 1 offloaded", first.InClient)
	}
}

func TestGreedyDegenerateInputs(t *testing.T) {
	if _, err := GreedyDensityCandidates(Input{}, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
	cands, err := GreedyDensityCandidates(Input{N: 2,
		Weight: [][]float64{{0, 1}, {1, 0}},
		Pinned: []bool{true, true}}, nil)
	if err != nil || len(cands) != 1 || cands[0].Offloaded != 0 {
		t.Fatalf("all-pinned: %v %v", cands, err)
	}
	// Short memory slice is tolerated (treated as zeros).
	if _, err := GreedyDensityCandidates(Input{N: 2,
		Weight: [][]float64{{0, 1}, {1, 0}}}, []int64{5}); err != nil {
		t.Fatal(err)
	}
}

func TestRefineKLImprovesBadCut(t *testing.T) {
	// Two heavy cliques; start from a partitioning that splits one.
	n := 6
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	heavy := func(a, b int) { w[a][b], w[b][a] = 50, 50 }
	heavy(0, 1)
	heavy(1, 2)
	heavy(0, 2)
	heavy(3, 4)
	heavy(4, 5)
	heavy(3, 5)
	w[2][3], w[3][2] = 1, 1

	in := Input{N: n, Weight: w, Pinned: []bool{true, false, false, false, false, false}}
	bad := []bool{true, true, false, false, true, true} // strands 4,5 away from 3
	before := CutWeight(n, w, bad)
	refined, cut, err := RefineKL(in, bad)
	if err != nil {
		t.Fatal(err)
	}
	if cut >= before {
		t.Fatalf("refinement did not improve: %v -> %v", before, cut)
	}
	// Swap refinement preserves the offload size.
	var off int
	for _, in := range refined {
		if !in {
			off++
		}
	}
	if off != 2 {
		t.Fatalf("offload size changed: %d", off)
	}
	if !refined[0] {
		t.Fatal("pinned vertex left the client")
	}
}

func TestRefineKLNeverMovesPins(t *testing.T) {
	w := [][]float64{
		{0, 100, 0},
		{100, 0, 0},
		{0, 0, 0},
	}
	in := Input{N: 3, Weight: w, Pinned: []bool{true, false, false}}
	// Vertex 1 offloaded despite heavy coupling to the pinned vertex 0;
	// the only profitable swap exchanges it with vertex 2, never the pin.
	refined, cut, err := RefineKL(in, []bool{true, false, true})
	if err != nil {
		t.Fatal(err)
	}
	if !refined[0] || !refined[1] || refined[2] || cut != 0 {
		t.Fatalf("refined = %v cut %v", refined, cut)
	}
}

func TestSortCandidatesByCut(t *testing.T) {
	cands := []Candidate{
		{CutWeight: 5, Offloaded: 1},
		{CutWeight: 1, Offloaded: 9},
		{CutWeight: 1, Offloaded: 2},
	}
	sortCandidatesByCut(cands)
	if cands[0].CutWeight != 1 || cands[0].Offloaded != 2 || cands[2].CutWeight != 5 {
		t.Fatalf("sorted = %+v", cands)
	}
}

// sortCandidatesByCut orders candidates by ascending cut weight (stable
// on offload size), a convenience for heuristic comparisons.
func sortCandidatesByCut(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].CutWeight != cands[j].CutWeight {
			return cands[i].CutWeight < cands[j].CutWeight
		}
		return cands[i].Offloaded < cands[j].Offloaded
	})
}
