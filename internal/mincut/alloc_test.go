//go:build !race

package mincut

import (
	"fmt"
	"math/rand"
	"testing"

	"aide/internal/graph"
)

// TestWarmRepartitionAllocatesConstant: on a warm Scratch, FromGraph
// reuses every buffer and Candidates allocates its slab and its slice,
// so a pass allocates a handful of times whatever the class count. The
// race detector's instrumentation allocates, so the file is built
// without it.
func TestWarmRepartitionAllocatesConstant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	ring := func(n int) *graph.Graph {
		g := graph.New()
		for i := 0; i < n; i++ {
			g.Intern(fmt.Sprint(i)).Pinned = i%50 == 0
		}
		for i := 0; i < n; i++ {
			g.AddInvocation(graph.NodeID(i), graph.NodeID((i+1)%n), int64(64+r.Intn(512)))
			for k := 0; k < 4; k++ {
				g.AddAccess(graph.NodeID(i), graph.NodeID(r.Intn(n)), int64(16+r.Intn(256)))
			}
		}
		return g
	}
	for _, n := range []int{138, 1000} {
		g := ring(n)
		var sc Scratch
		pass := func() {
			if _, err := sc.Candidates(sc.FromGraph(g, graph.BytesWeight)); err != nil {
				t.Fatal(err)
			}
		}
		pass()
		if got := testing.AllocsPerRun(5, pass); got > 8 {
			t.Errorf("n=%d: a warm FromGraph + Candidates allocates %v times, want at most 8", n, got)
		}
	}
}
