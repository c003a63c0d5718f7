package experiments

// Golden regression tests: every workload and emulation in this repository
// is fully deterministic, so the headline numbers of EXPERIMENTS.md can be
// pinned exactly. A calibration change that shifts them is visible here
// and must be reflected in the documentation.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/graph"
	"aide/internal/monitor"
	"aide/internal/vm"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ±%.4f (update EXPERIMENTS.md if this calibration change is intentional)",
			name, got, want, tol)
	}
}

func TestGoldenFigure6(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"JavaNote": 0.0769, "Dia": 0.0931, "Biomer": 0.2891}
	for _, r := range rows {
		approx(t, "figure6/"+r.App, r.OverheadFrac, want[r.App], 0.002)
	}
}

func TestGoldenTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := suite().Table2()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.ClassEvents != 138 {
		t.Errorf("classes = %d, want 138", r.Stats.ClassEvents)
	}
	if r.Stats.InteractionEvents != 1192103 {
		t.Errorf("interaction events = %d, want 1192103", r.Stats.InteractionEvents)
	}
	if r.Stats.ObjectEvents != 8644 {
		t.Errorf("object events = %d, want 8644", r.Stats.ObjectEvents)
	}
}

func TestGoldenMonitoring(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := suite().MonitoringOverhead()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "monitoring overhead", r.OverheadFrac, 0.119, 0.002)
}

// renderAll renders every parallelized artifact to text: the byte-identity
// oracle for TestGoldenParallelDeterminism.
func renderAll(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	f6, err := s.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f6 {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	f7, err := s.Figure7(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f7 {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	f10, err := s.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range f10 {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	hs, err := s.HeapSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range hs {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	ls, err := s.LinkSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ls {
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestGoldenParallelDeterminism runs Figure 6/7/10 and both sweeps serially
// and with an 8-wide worker pool and requires byte-identical output: the
// engine's order-preservation contract, end to end.
func TestGoldenParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := suite()
	old := s.Parallelism
	defer func() { s.Parallelism = old }()

	s.Parallelism = 1
	serial := renderAll(t, s)
	s.Parallelism = 8
	parallel := renderAll(t, s)
	if serial != parallel {
		t.Fatalf("parallel output diverges from serial output:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestGoldenFigure10(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure10()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.App {
		case "Voxel":
			approx(t, "voxel combined speedup", r.Speedup(), 0.109, 0.005)
		case "Tracer":
			approx(t, "tracer combined speedup", r.Speedup(), 0.076, 0.005)
		case "Biomer":
			if !r.Declined {
				t.Error("Biomer must decline")
			}
		}
	}
}

// TestGoldenConcurrentIngestDeterminism pins the monitor's ingest
// alongside the engine's order-preservation gate above: the same event
// multiset fed serially and from 8 round-robin concurrent sources, flushed
// once, must leave identical integer books — invocations, accesses and
// bytes on every edge, memory, objects and CPU time on every class, and the
// event counts — because integer deltas commute, so ingestion interleaving
// can never leak into the partitioner's input. Peak memory is left out:
// it follows the order creations and deletions interleave in.
func TestGoldenConcurrentIngestDeterminism(t *testing.T) {
	type books struct {
		edges  map[[2]string][3]int64
		nodes  map[string][4]int64
		counts [5]int64
	}
	feed := func(sources int) books {
		m := monitor.New(nil)
		var wg sync.WaitGroup
		for s := 0; s < sources; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := s; i < 40000; i += sources {
					a := fmt.Sprintf("C%02d", i%37)
					b := fmt.Sprintf("C%02d", (i*11+3)%37)
					switch i % 4 {
					case 0:
						m.OnInvoke(a, b, "m", 0, int64(i%512), 32, time.Duration(i%97), false, false)
					case 1:
						m.OnCreate(b, vm.ObjectID(i), int64(i%300))
					case 2:
						m.OnDelete(a, vm.ObjectID(i), int64(i%200))
					default:
						m.OnAccess(a, b, 0, int64(i%256))
					}
				}
			}(s)
		}
		wg.Wait()
		g := m.Live() // single flush
		out := books{edges: map[[2]string][3]int64{}, nodes: map[string][4]int64{}}
		out.counts[0], out.counts[1], out.counts[2], out.counts[3], out.counts[4] = m.Counts()
		g.EdgesFunc(func(e *graph.Edge) {
			a, b := g.Node(e.A).Name, g.Node(e.B).Name
			if a > b {
				a, b = b, a
			}
			out.edges[[2]string{a, b}] = [3]int64{e.Invocations, e.Accesses, e.Bytes}
		})
		for _, n := range g.Nodes() {
			out.nodes[n.Name] = [4]int64{n.Memory, n.LiveObjects, n.TotalObjects, int64(n.CPUTime)}
		}
		return out
	}

	serial, parallel := feed(1), feed(8)
	if serial.counts != parallel.counts {
		t.Fatalf("counts diverge: %v vs %v", serial.counts, parallel.counts)
	}
	// NodeIDs differ under concurrent interning; compare by name.
	if len(serial.edges) != len(parallel.edges) || len(serial.nodes) != len(parallel.nodes) {
		t.Fatalf("graph shapes differ: %d/%d edges, %d/%d classes", len(serial.edges), len(parallel.edges), len(serial.nodes), len(parallel.nodes))
	}
	for k, w := range serial.edges {
		if got, ok := parallel.edges[k]; !ok || got != w {
			t.Fatalf("edge %v: serial %v, parallel %v (ok=%t)", k, w, got, ok)
		}
	}
	for k, w := range serial.nodes {
		if got := parallel.nodes[k]; got != w {
			t.Fatalf("class %s: serial %v, parallel %v", k, w, got)
		}
	}
}
