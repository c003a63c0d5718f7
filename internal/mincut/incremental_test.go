package mincut

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aide/internal/graph"
	"aide/internal/monitor"
	"aide/internal/vm"
)

// randomDeltaWorkload applies k random mutations to g and mirrors them
// nowhere else — deltas are pulled by the caller.
func randomDeltaWorkload(rng *rand.Rand, g *graph.Graph, ids []graph.NodeID, k int) {
	for i := 0; i < k; i++ {
		a := ids[rng.Intn(len(ids))]
		b := ids[rng.Intn(len(ids))]
		if a == b {
			continue
		}
		switch rng.Intn(3) {
		case 0:
			g.AddInvocation(a, b, int64(rng.Intn(1024)+1))
		case 1:
			g.AddAccess(a, b, int64(rng.Intn(256)+1))
		case 2:
			g.AddObject(a, int64(rng.Intn(4096)))
		}
	}
}

// TestIncrementalMatrixMatchesFresh: after K rounds of random deltas the
// persistently maintained matrix must be byte-equal to a from-scratch
// fillFromGraph of the same graph — the invariant that makes the
// fallback path exactly equivalent to a cold run.
func TestIncrementalMatrixMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 30; i++ {
		n := g.Intern(fmt.Sprintf("C%02d", i))
		if i%7 == 0 {
			n.Pinned = true
		}
		ids = append(ids, n.ID)
	}

	var inc Incremental
	for round := 0; round < 25; round++ {
		randomDeltaWorkload(rng, g, ids, 40)
		if round == 10 {
			// Mid-stream growth: new classes join.
			for i := 0; i < 5; i++ {
				ids = append(ids, g.Intern(fmt.Sprintf("X%02d", i)).ID)
			}
		}
		inc.Update(g.Delta(inc.Epoch()), graph.BytesWeight)

		var fresh Scratch
		want := fresh.FromGraph(g, graph.BytesWeight)
		if inc.in.N != want.N {
			t.Fatalf("round %d: N = %d want %d", round, inc.in.N, want.N)
		}
		for i := 0; i < want.N; i++ {
			if inc.in.Pinned[i] != want.Pinned[i] {
				t.Fatalf("round %d: pinned[%d] = %t", round, i, inc.in.Pinned[i])
			}
			for j := 0; j < want.N; j++ {
				if inc.in.Weight[i][j] != want.Weight[i][j] {
					t.Fatalf("round %d: weight[%d][%d] = %v want %v",
						round, i, j, inc.in.Weight[i][j], want.Weight[i][j])
				}
			}
		}
	}
}

// TestIncrementalFallbackEqualsFullPass: with Threshold < 0 every
// Candidates call takes the fallback, which must reproduce a cold
// Candidates run on the same graph bit for bit.
func TestIncrementalFallbackEqualsFullPass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 20; i++ {
		n := g.Intern(fmt.Sprintf("C%02d", i))
		n.Pinned = i < 3
		ids = append(ids, n.ID)
	}

	inc := Incremental{Threshold: -1}
	for round := 0; round < 10; round++ {
		randomDeltaWorkload(rng, g, ids, 30)
		inc.Update(g.Delta(inc.Epoch()), graph.BytesWeight)
		got, err := inc.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		if !inc.WasFull() {
			t.Fatal("negative threshold must force the full pass")
		}
		want, err := Candidates(FromGraph(g, graph.BytesWeight))
		if err != nil {
			t.Fatal(err)
		}
		requireSameCandidates(t, fmt.Sprintf("round %d", round), got, want)
		inc.Commit(got[len(got)/2])
	}
}

func requireSameCandidates(t *testing.T, where string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", where, len(got), len(want))
	}
	for i := range want {
		if got[i].CutWeight != want[i].CutWeight || got[i].Offloaded != want[i].Offloaded {
			t.Fatalf("%s cand %d: got %v/%d want %v/%d", where, i,
				got[i].CutWeight, got[i].Offloaded, want[i].CutWeight, want[i].Offloaded)
		}
		for v := range want[i].InClient {
			if got[i].InClient[v] != want[i].InClient[v] {
				t.Fatalf("%s cand %d vertex %d differs", where, i, v)
			}
		}
	}
}

// TestIncrementalMonitorDrivenEqualsFullPass drives the pipeline as the
// platform does — a real monitor ingests churn, the partitioner pulls
// its deltas and commits warm refinements — and then forces the full
// pass: the matrix maintained across those rounds must give exactly the
// candidates of a cold run on a fresh snapshot of the monitor's graph.
func TestIncrementalMonitorDrivenEqualsFullPass(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(n))
	class := func(i int) string { return fmt.Sprintf("C%04d", i%n) }
	mon := monitor.New(nil)
	for i := 0; i < n; i++ {
		mon.OnCreate(class(i), vm.ObjectID(i), int64(1024+rng.Intn(4096)))
		mon.OnInvoke(class(i), class(i+1), "m", 0, int64(64+rng.Intn(512)), 32, time.Microsecond, false, false)
		for k := 0; k < 4; k++ {
			if j := rng.Intn(n); j != i {
				mon.OnAccess(class(i), class(j), 0, int64(16+rng.Intn(256)))
			}
		}
	}

	var inc Incremental
	warm := 0
	for round := 0; round < 4; round++ {
		inc.Update(mon.Delta(inc.Epoch()), graph.BytesWeight)
		cands, err := inc.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		if !inc.WasFull() {
			warm++
		}
		inc.Commit(cands[len(cands)/2])
		// Touch ~5% of the edges: new traffic on known pairs.
		for k := mon.Live().EdgeCount() / 20; k >= 0; k-- {
			i := rng.Intn(n)
			if rng.Intn(2) == 0 {
				mon.OnInvoke(class(i), class(i+1), "m", 0, int64(64+rng.Intn(512)), 32, 0, false, false)
			} else {
				mon.OnAccess(class(i), class(i+1), 0, int64(16+rng.Intn(256)))
			}
		}
	}
	if warm == 0 {
		t.Fatal("no round took the warm path")
	}

	inc.Threshold = -1
	inc.Update(mon.Delta(inc.Epoch()), graph.BytesWeight)
	got, err := inc.Candidates()
	if err != nil || !inc.WasFull() {
		t.Fatalf("forced full pass: err=%v full=%t", err, inc.WasFull())
	}
	want, err := Candidates(FromGraph(mon.Graph(), graph.BytesWeight))
	if err != nil {
		t.Fatal(err)
	}
	requireSameCandidates(t, "forced full pass", got, want)
}

// TestIncrementalWarmPath: small deltas against a committed partition
// take the warm path, keep pinned vertices on the client, maintain the
// cut weight exactly (integer weights), and never worsen the committed
// cut.
func TestIncrementalWarmPath(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.New()
	var ids []graph.NodeID
	for i := 0; i < 40; i++ {
		n := g.Intern(fmt.Sprintf("C%02d", i))
		n.Pinned = i == 0
		ids = append(ids, n.ID)
	}
	randomDeltaWorkload(rng, g, ids, 2000) // dense base graph

	var inc Incremental
	inc.Update(g.Delta(0), graph.BytesWeight)
	cands, err := inc.Candidates()
	if err != nil || !inc.WasFull() {
		t.Fatalf("cold start: err=%v full=%t", err, inc.WasFull())
	}
	chosen := cands[len(cands)/2]
	inc.Commit(chosen)

	for round := 0; round < 15; round++ {
		randomDeltaWorkload(rng, g, ids, 5) // ≤5 dirty edges on a dense graph
		inc.Update(g.Delta(inc.Epoch()), graph.BytesWeight)
		warm, err := inc.Candidates()
		if err != nil {
			t.Fatal(err)
		}
		if inc.WasFull() {
			t.Fatalf("round %d: small delta took the full pass", round)
		}
		if len(warm) != 1 {
			t.Fatalf("round %d: warm path returned %d candidates", round, len(warm))
		}
		c := warm[0]
		if !c.InClient[0] {
			t.Fatalf("round %d: pinned vertex left the client", round)
		}
		// The reported cut must equal the true cut of the placement.
		truth := CutWeight(inc.N(), inc.in.Weight, c.InClient)
		if c.CutWeight != truth {
			t.Fatalf("round %d: maintained cut %v, true cut %v", round, c.CutWeight, truth)
		}
		// Refinement only applies improving moves: no worse than the
		// committed baseline under the updated weights.
		base := CutWeight(inc.N(), inc.in.Weight, inc.prev)
		if c.CutWeight > base {
			t.Fatalf("round %d: refined cut %v worse than baseline %v", round, c.CutWeight, base)
		}
		inc.Commit(c)
	}
}

// TestIncrementalFullResync: an out-of-lineage delta (Full) resets the
// matrix and forces the full pass, landing on the same result as a cold
// run.
func TestIncrementalFullResync(t *testing.T) {
	g := graph.New()
	a, b, c := g.Intern("a"), g.Intern("b"), g.Intern("c")
	g.Intern("d").Pinned = true
	g.AddInvocation(a.ID, b.ID, 100)
	g.AddAccess(b.ID, c.ID, 50)

	var inc Incremental
	inc.Update(g.Delta(0), graph.BytesWeight)
	cands, _ := inc.Candidates()
	inc.Commit(cands[0])

	// Simulate a consumer that lost its epoch: pull with a bogus one.
	d := g.Delta(12345)
	if !d.Full {
		t.Fatal("expected full resync")
	}
	inc.Update(d, graph.BytesWeight)
	got, err := inc.Candidates()
	if err != nil || !inc.WasFull() {
		t.Fatalf("resync: err=%v full=%t", err, inc.WasFull())
	}
	want, _ := Candidates(FromGraph(g, graph.BytesWeight))
	if len(got) != len(want) || got[0].CutWeight != want[0].CutWeight {
		t.Fatalf("resync diverged: %d/%v vs %d/%v", len(got), got[0].CutWeight, len(want), want[0].CutWeight)
	}
}

// TestIncrementalEmpty: partitioning before any delta reports
// ErrNoVertices like the cold API.
func TestIncrementalEmpty(t *testing.T) {
	var inc Incremental
	if _, err := inc.Candidates(); err != ErrNoVertices {
		t.Fatalf("err = %v", err)
	}
}
