package mincut

import "math"

// GreedyDensityCandidates is an alternative partitioning heuristic (the
// paper's §8 lists "additional partitioning heuristics besides the
// modified MINCUT approach" as future work).
//
// Where the modified MINCUT heuristic grows the client partition by
// connectivity, this heuristic grows the *offload* partition by memory
// density: it repeatedly offloads the unpinned vertex with the highest
// memory freed per unit of cut weight added, emitting a candidate after
// each move. It tends to find memory-rich, loosely coupled offloads
// faster, but can strand tightly coupled pairs on opposite sides.
//
// memory[v] is the bytes freed by offloading vertex v.
func GreedyDensityCandidates(in Input, memory []int64) ([]Candidate, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return greedyDensityCandidates(in, memory)
}

// greedyDensityCandidates is the heuristic core, shared with
// Scratch.GreedyDensityCandidates. It assumes a validated input.
func greedyDensityCandidates(in Input, memory []int64) ([]Candidate, error) {
	if in.N == 0 {
		return nil, ErrNoVertices
	}
	if len(memory) != in.N {
		memory = make([]int64, in.N)
	}

	inClient := make([]bool, in.N)
	movable := make([]int, 0, in.N)
	for v := 0; v < in.N; v++ {
		inClient[v] = true
		if in.Pinned == nil || !in.Pinned[v] {
			movable = append(movable, v)
		}
	}
	if len(movable) == 0 {
		return []Candidate{{InClient: cloneBools(inClient)}}, nil
	}

	// conn[v] = weight between v and the current client partition minus
	// weight to the offload partition: the cut-weight delta of moving v.
	delta := func(v int) float64 {
		var d float64
		for u := 0; u < in.N; u++ {
			if u == v {
				continue
			}
			if inClient[u] {
				d += in.Weight[v][u]
			} else {
				d -= in.Weight[v][u]
			}
		}
		return d
	}

	var cut float64
	candidates := make([]Candidate, 0, len(movable)+1)
	record := func(offloaded int) {
		candidates = append(candidates, Candidate{
			InClient:  cloneBools(inClient),
			CutWeight: cut,
			Offloaded: offloaded,
		})
	}
	record(0) // offload nothing

	remaining := append([]int(nil), movable...)
	offloaded := 0
	for len(remaining) > 0 {
		best, bestScore := -1, math.Inf(-1)
		for i, v := range remaining {
			d := delta(v)
			var score float64
			if d <= 0 {
				// Moving v reduces the cut: always best, break ties by
				// memory.
				score = math.MaxFloat64/2 + float64(memory[v])
			} else {
				score = float64(memory[v]+1) / (d + 1)
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		v := remaining[best]
		cut += delta(v)
		inClient[v] = false
		offloaded++
		remaining[best] = remaining[len(remaining)-1]
		remaining = remaining[:len(remaining)-1]
		record(offloaded)
	}
	return candidates, nil
}

// RefineKL applies a Kernighan–Lin-style swap-refinement pass to a
// partitioning: it repeatedly exchanges one unpinned client vertex with
// one offloaded vertex when the swap strictly reduces the cut weight,
// until no swap helps. Swapping (rather than moving) preserves the number
// of offloaded vertices, so a refinement cannot collapse the offload that
// the partitioning policy selected — the degenerate zero-cut "offload
// nothing" solution stays unreachable.
func RefineKL(in Input, inClient []bool) ([]bool, float64, error) {
	if err := in.Validate(); err != nil {
		return nil, 0, err
	}
	return refineKL(in, inClient)
}

// refineKL is the refinement core, shared with Scratch.RefineKL. It
// assumes a validated input.
func refineKL(in Input, inClient []bool) ([]bool, float64, error) {
	out := cloneBools(inClient)
	cut := CutWeight(in.N, in.Weight, out)
	improved := true
	for improved {
		improved = false
		bestGain := 0.0
		bestA, bestB := -1, -1
		for a := 0; a < in.N; a++ {
			if !out[a] || (in.Pinned != nil && in.Pinned[a]) {
				continue // a must be an unpinned client vertex
			}
			for b := 0; b < in.N; b++ {
				if out[b] {
					continue // b must be offloaded
				}
				out[a], out[b] = false, true
				gain := cut - CutWeight(in.N, in.Weight, out)
				out[a], out[b] = true, false
				if gain > bestGain+1e-9 {
					bestGain, bestA, bestB = gain, a, b
				}
			}
		}
		if bestA >= 0 {
			out[bestA], out[bestB] = false, true
			cut -= bestGain
			improved = true
		}
	}
	return out, CutWeight(in.N, in.Weight, out), nil
}
