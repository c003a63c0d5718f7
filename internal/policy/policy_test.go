package policy

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/netmodel"
)

// twoClusterGraph builds: pinned UI hub (u), editor (e) tightly coupled to
// UI, document (d1,d2) loosely coupled to editor, plus memory on the
// document side.
func twoClusterGraph() *graph.Graph {
	g := graph.New()
	u := g.Intern("ui")
	u.Pinned = true
	e := g.Intern("edit")
	d1 := g.Intern("doc1")
	d2 := g.Intern("doc2")

	for i := 0; i < 100; i++ {
		g.AddInvocation(u.ID, e.ID, 1000) // heavy UI↔editor
	}
	for i := 0; i < 5; i++ {
		g.AddInvocation(e.ID, d1.ID, 10) // light editor↔doc
	}
	for i := 0; i < 80; i++ {
		g.AddInvocation(d1.ID, d2.ID, 500) // heavy doc-internal
	}
	g.AddObject(u.ID, 10<<10)
	g.AddObject(e.ID, 20<<10)
	g.AddObject(d1.ID, 300<<10)
	g.AddObject(d2.ID, 700<<10)
	return g
}

func candidatesOf(t *testing.T, g *graph.Graph) []mincut.Candidate {
	t.Helper()
	cands, err := mincut.Candidates(mincut.FromGraph(g, graph.BytesWeight))
	if err != nil {
		t.Fatal(err)
	}
	return cands
}

func TestMemoryPolicyChoosesLooseCut(t *testing.T) {
	g := twoClusterGraph()
	mp := MemoryPolicy{MinFreeFraction: 0.20}
	dec, err := mp.Choose(g, 2<<20, candidatesOf(t, g)) // need ≥ 410 KB
	if err != nil {
		t.Fatal(err)
	}
	// The document cluster (1 MB) must offload; UI and editor stay.
	ui, _ := g.Lookup("ui")
	ed, _ := g.Lookup("edit")
	d1, _ := g.Lookup("doc1")
	d2, _ := g.Lookup("doc2")
	if !dec.InClient[ui.ID] || !dec.InClient[ed.ID] {
		t.Fatalf("client side wrong: %+v", dec.InClient)
	}
	if dec.InClient[d1.ID] || dec.InClient[d2.ID] {
		t.Fatalf("documents should offload: %+v", dec.InClient)
	}
	if dec.OffloadBytes != 1000<<10 {
		t.Fatalf("OffloadBytes = %d", dec.OffloadBytes)
	}
	if dec.CutBytes != 50 {
		t.Fatalf("CutBytes = %d, want 50 (5 light calls)", dec.CutBytes)
	}

	// Choose is ChooseDense's selection plus the full-graph evaluation
	// of that one winner.
	mem := make([]int64, g.Len())
	for v, n := range g.Nodes() {
		mem[v] = n.Memory
	}
	winner, err := mp.ChooseDense(mem, 2<<20, candidatesOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	want := evaluate(g, mincut.Candidate{InClient: winner.InClient, CutWeight: winner.CutWeight})
	if !reflect.DeepEqual(dec, want) {
		t.Fatalf("Choose = %+v, want evaluate(ChooseDense winner) = %+v", dec, want)
	}
	if winner.OffloadBytes != want.OffloadBytes || winner.OffloadClasses != want.OffloadClasses {
		t.Fatalf("dense winner %d B/%d classes, evaluated %d B/%d classes",
			winner.OffloadBytes, winner.OffloadClasses, want.OffloadBytes, want.OffloadClasses)
	}
}

func TestMemoryPolicyInfeasible(t *testing.T) {
	g := twoClusterGraph()
	mp := MemoryPolicy{MinFreeFraction: 0.9}
	_, err := mp.Choose(g, 2<<20, candidatesOf(t, g)) // need 1.8 MB > total offloadable
	if !errors.Is(err, ErrNotBeneficial) {
		t.Fatalf("err = %v, want ErrNotBeneficial", err)
	}
}

// TestHardPressureFallbackFreesMemory: the hard-pressure retry runs at
// MinFreeFraction 0, which must still accept only an offload that frees
// memory. Here the cheapest cut offloads a class with no objects; the
// policy must pick the dearer cut that frees the document's 50,000 B.
func TestHardPressureFallbackFreesMemory(t *testing.T) {
	g := graph.New()
	ui := g.Intern("ui")
	ui.Pinned = true
	helper := g.Intern("helper")
	doc := g.Intern("doc")
	g.AddObject(ui.ID, 1000)
	g.AddObject(doc.ID, 50000)
	g.AddInvocation(ui.ID, helper.ID, 10)
	g.AddInvocation(ui.ID, doc.ID, 5000)

	mp := MemoryPolicy{MinFreeFraction: 0}
	d, err := mp.Choose(g, 64<<10, candidatesOf(t, g))
	if err != nil {
		t.Fatal(err)
	}
	if d.OffloadBytes != 50000 || d.OffloadClasses != 2 || d.CutWeight != 5010 {
		t.Fatalf("decision frees %d B in %d classes at cut %v, want 50000 B in 2 classes at 5010",
			d.OffloadBytes, d.OffloadClasses, d.CutWeight)
	}
}

func TestMemoryPolicyRejectsBadHeap(t *testing.T) {
	g := twoClusterGraph()
	mp := MemoryPolicy{MinFreeFraction: 0.2}
	if _, err := mp.Choose(g, 0, candidatesOf(t, g)); err == nil {
		t.Fatal("zero heap capacity must error")
	}
}

// cpuGraph: compute cluster with big CPU time, loosely coupled; ui pinned.
func cpuGraph(commCalls int) *graph.Graph {
	g := graph.New()
	u := g.Intern("ui")
	u.Pinned = true
	c1 := g.Intern("compute1")
	c2 := g.Intern("compute2")
	g.AddCPU(u.ID, 1*time.Second)
	g.AddCPU(c1.ID, 5*time.Second)
	g.AddCPU(c2.ID, 4*time.Second)
	for i := 0; i < commCalls; i++ {
		g.AddInvocation(u.ID, c1.ID, 100)
	}
	for i := 0; i < 3000; i++ {
		g.AddInvocation(c1.ID, c2.ID, 100)
	}
	return g
}

func TestCPUPolicyOffloadsWhenBeneficial(t *testing.T) {
	g := cpuGraph(10) // negligible crossing
	cp := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN()}
	dec, err := cp.Choose(g, candidatesOf(t, g))
	if err != nil {
		t.Fatalf("should be beneficial: %v", err)
	}
	local := cp.LocalTime(g)
	if dec.PredictedTime >= local {
		t.Fatalf("predicted %v not better than local %v", dec.PredictedTime, local)
	}
	if dec.OffloadCPU < 9*time.Second {
		t.Fatalf("compute cluster not offloaded: %+v", dec)
	}
}

func TestCPUPolicyDeclinesWhenCommDominates(t *testing.T) {
	// 50k crossings × ~2.45 ms ≈ 120 s of communication versus ~6.4 s of
	// possible execution gain: offloading must be declined.
	g := cpuGraph(50000)
	cp := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN()}
	_, err := cp.Choose(g, candidatesOf(t, g))
	if !errors.Is(err, ErrNotBeneficial) {
		t.Fatalf("err = %v, want ErrNotBeneficial", err)
	}
	// The forced variant still returns its best guess.
	dec, err := cp.ChooseBest(g, candidatesOf(t, g))
	if err != nil {
		t.Fatalf("ChooseBest: %v", err)
	}
	if dec.PredictedTime <= cp.LocalTime(g) {
		t.Fatal("forced decision should predict worse than local here")
	}
}

func TestCPUPolicyMinCPUFractionFiltersIdleOffloads(t *testing.T) {
	g := cpuGraph(10)
	// Add an idle class with memory but no CPU.
	idle := g.Intern("idle")
	g.AddObject(idle.ID, 1<<20)
	cp := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN(), MinCPUFraction: 0.5}
	dec, err := cp.Choose(g, candidatesOf(t, g))
	if err != nil {
		t.Fatalf("choose: %v", err)
	}
	if dec.OffloadCPU < 5*time.Second {
		t.Fatalf("candidate below the CPU floor chosen: %+v", dec)
	}
}

func TestCPUPolicyClientSlowdownScalesDecision(t *testing.T) {
	g := cpuGraph(2000)
	base := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN()}
	slow := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN(), ClientSlowdown: 20}
	// On a fast client the 2000 crossings may not pay off; on a 20× slower
	// client the execution term dominates and offloading must win.
	if _, err := slow.Choose(g, candidatesOf(t, g)); err != nil {
		t.Fatalf("slow client should offload: %v", err)
	}
	localFast, localSlow := base.LocalTime(g), slow.LocalTime(g)
	if localSlow != 20*localFast {
		t.Fatalf("LocalTime scaling wrong: %v vs %v", localFast, localSlow)
	}
}

func TestCPUPolicyEnhancementsReducePrediction(t *testing.T) {
	g := graph.New()
	u := g.Intern("ui")
	u.Pinned = true
	c := g.Intern("compute")
	m := g.Intern("math")
	m.Pinned = true
	m.Stateless = true
	arr := g.Intern("arr")
	arr.Array = true
	g.AddCPU(c.ID, 10*time.Second)
	for i := 0; i < 5000; i++ {
		g.AddInvocation(c.ID, m.ID, 16)
	}
	for i := 0; i < 5000; i++ {
		g.AddAccess(c.ID, arr.ID, 64)
	}

	inClient := []bool{true, false, true, false} // offload compute+arr
	plain := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN()}
	enhanced := CPUPolicy{Speedup: 3.5, Link: netmodel.WaveLAN(), StatelessNativeLocal: true, ArrayGranularity: true}
	if p, e := plain.Predict(g, inClient), enhanced.Predict(g, inClient); e >= p {
		t.Fatalf("enhancements must reduce predicted time: %v vs %v", p, e)
	}
}

func TestMemoryTrigger(t *testing.T) {
	tr := MemoryTrigger{FreeFraction: 0.05, Tolerance: 3}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	cap := int64(100)
	if tr.Report(50, cap, true) {
		t.Fatal("healthy heap fired")
	}
	if tr.Report(4, cap, true) || tr.Report(4, cap, true) {
		t.Fatal("fired before tolerance reached")
	}
	if !tr.Report(4, cap, true) {
		t.Fatal("third consecutive low report must fire")
	}
	// After firing the count resets.
	if tr.Report(4, cap, true) {
		t.Fatal("must not refire immediately")
	}
	// A healthy report breaks the streak.
	tr.Report(4, cap, true)
	tr.Report(50, cap, true)
	if tr.Report(4, cap, true) || tr.Report(4, cap, true) {
		t.Fatal("streak did not reset")
	}
	tr.Reset()
	if tr.Report(4, cap, true) {
		t.Fatal("Reset did not clear the streak")
	}
}

func TestMemoryTriggerValidate(t *testing.T) {
	bad := []MemoryTrigger{
		{FreeFraction: -0.1, Tolerance: 1},
		{FreeFraction: 1.5, Tolerance: 1},
		{FreeFraction: 0.05, Tolerance: 0},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: invalid trigger accepted", i)
		}
	}
}

func TestPeriodicTrigger(t *testing.T) {
	p := PeriodicTrigger{Every: 10 * time.Second}
	if p.Tick(0) {
		t.Fatal("first tick must not fire (no baseline yet)")
	}
	if p.Tick(5 * time.Second) {
		t.Fatal("fired early")
	}
	if !p.Tick(10 * time.Second) {
		t.Fatal("did not fire at period")
	}
	if p.Tick(15 * time.Second) {
		t.Fatal("fired again before next period")
	}
	if !p.Tick(21 * time.Second) {
		t.Fatal("did not fire at second period")
	}
	disabled := PeriodicTrigger{}
	if disabled.Tick(time.Hour) {
		t.Fatal("zero-period trigger must never fire")
	}
}

func TestSweepSpaceMatchesPaperRanges(t *testing.T) {
	space := SweepSpace()
	if len(space) != 7*3*8 {
		t.Fatalf("sweep size = %d, want 168", len(space))
	}
	for _, p := range space {
		if p.TriggerFreeFraction < 0.02 || p.TriggerFreeFraction > 0.50 {
			t.Fatalf("threshold %v outside paper range", p.TriggerFreeFraction)
		}
		if p.Tolerance < 1 || p.Tolerance > 3 {
			t.Fatalf("tolerance %d outside paper range", p.Tolerance)
		}
		if p.MinFreeFraction < 0.10 || p.MinFreeFraction > 0.80 {
			t.Fatalf("min-free %v outside paper range", p.MinFreeFraction)
		}
	}
	if InitialParams() != (Params{TriggerFreeFraction: 0.05, Tolerance: 3, MinFreeFraction: 0.20}) {
		t.Fatal("initial policy drifted from the paper's §5.1 values")
	}
}
