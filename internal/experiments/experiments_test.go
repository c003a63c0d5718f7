package experiments

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/apps"
	"aide/internal/emulator"
	"aide/internal/policy"
)

// sharedSuite caches the (expensive) application recordings across the
// experiment shape tests.
var (
	sharedOnce  sync.Once
	sharedSuite *Suite
)

func suite() *Suite {
	sharedOnce.Do(func() { sharedSuite = NewSuite() })
	return sharedSuite
}

func TestTable1(t *testing.T) {
	rows := Table1()
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Name != "JavaNote" || rows[0].Description != "Simple text editor" {
		t.Fatalf("row 0 = %+v", rows[0])
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := suite().Table2()
	if err != nil {
		t.Fatal(err)
	}
	s := r.Stats
	// Paper: classes 134/138/138.
	if s.ClassesMax != 138 || s.ClassEvents != 138 {
		t.Errorf("classes = %.0f/%d/%d, want ≈134/138/138", s.ClassesAvg, s.ClassesMax, s.ClassEvents)
	}
	// Paper: interactions ≪ interaction events.
	if s.LinksMax >= s.InteractionEvents/100 {
		t.Errorf("links %d not ≪ events %d", s.LinksMax, s.InteractionEvents)
	}
	if r.String() == "" || !strings.Contains(r.String(), "interactions") {
		t.Error("Table 2 rendering broken")
	}
}

func TestFigure5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := suite().Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if !r.FailsWithoutOffload {
		t.Error("the unmodified 6 MB VM must fail (paper §5.1)")
	}
	if !r.Survived {
		t.Error("the offloaded run must complete")
	}
	// Paper: ~90% of the heap offloaded.
	if r.FractionOfHeap < 0.5 {
		t.Errorf("offloaded only %.0f%% of the heap; paper reports ~90%%", r.FractionOfHeap*100)
	}
	if r.OffloadClasses == 0 || r.Classes < 120 {
		t.Errorf("graph/offload sizes wrong: %+v", r)
	}
	// Paper: heuristic ~0.1 s on a 600 MHz Pentium; anything sub-second
	// here is consistent.
	if r.HeuristicTime > time.Second {
		t.Errorf("heuristic took %v", r.HeuristicTime)
	}
	if !strings.Contains(r.DOTAfter, "style=dotted") {
		t.Error("Figure 5b rendering must show cut edges dotted")
	}
}

// TestFigure5RedecidesTheEmulatorsPartition: Figure 5 rebuilds the graph
// the emulator's partition read — every event up to and including the
// one it ran at — so the decision it recomputes on it is the emulator's.
func TestFigure5RedecidesTheEmulatorsPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	s := suite()
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.Trace(spec.Name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := emulator.Run(tr, s.memoryConfig(spec, policy.InitialParams()))
	if err != nil || len(res.Partitions) == 0 {
		t.Fatalf("JavaNote did not partition: %v", err)
	}
	part := res.Partitions[0]
	_, dec, _, err := s.redecide(tr, part, spec.EmuHeap)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, part.Decision) {
		t.Fatalf("recomputed decision frees %d B in %d classes, the emulator's %d B in %d",
			dec.OffloadBytes, dec.OffloadClasses, part.Decision.OffloadBytes, part.Decision.OffloadClasses)
	}
}

func TestFigure6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	byApp := map[string]Figure6Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.OverheadFrac < 0 {
			t.Errorf("%s overhead negative: %v", r.App, r.OverheadFrac)
		}
	}
	// Paper shape: JavaNote and Dia reasonable (<15%), Biomer much worse
	// (20–40%), and Biomer strictly the worst.
	if byApp["JavaNote"].OverheadFrac > 0.15 {
		t.Errorf("JavaNote overhead %.1f%%, want <15%% (paper 4.8%%)", byApp["JavaNote"].OverheadFrac*100)
	}
	if byApp["Dia"].OverheadFrac > 0.15 {
		t.Errorf("Dia overhead %.1f%%, want <15%% (paper 8.5%%)", byApp["Dia"].OverheadFrac*100)
	}
	b := byApp["Biomer"].OverheadFrac
	if b < 0.15 || b > 0.45 {
		t.Errorf("Biomer overhead %.1f%%, want 15–45%% (paper 27.5%%)", b*100)
	}
	if b <= byApp["JavaNote"].OverheadFrac || b <= byApp["Dia"].OverheadFrac {
		t.Error("Biomer must be the worst (paper Figure 6)")
	}
}

func TestFigure7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure7(true)
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Figure7Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.BestOverhead > r.InitialOverhead {
			t.Errorf("%s: best (%v) worse than initial (%v)", r.App, r.BestOverhead, r.InitialOverhead)
		}
	}
	// Paper shape: policy search substantially reduces Biomer's and Dia's
	// overhead while JavaNote's stays roughly put.
	if byApp["Biomer"].ReductionFrac < 0.25 {
		t.Errorf("Biomer reduction %.0f%%, want ≥25%% (paper 30–43%%)", byApp["Biomer"].ReductionFrac*100)
	}
	if byApp["Dia"].ReductionFrac < 0.25 {
		t.Errorf("Dia reduction %.0f%%, want ≥25%% (paper 30–43%%)", byApp["Dia"].ReductionFrac*100)
	}
	if byApp["JavaNote"].ReductionFrac > 0.3 {
		t.Errorf("JavaNote reduction %.0f%%, paper found essentially none", byApp["JavaNote"].ReductionFrac*100)
	}
}

func TestFigure8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure8()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Figure8Row{}
	for _, r := range rows {
		byApp[r.App] = r
		if r.Native > r.TotalRemote {
			t.Errorf("%s: native %d exceeds total %d", r.App, r.Native, r.TotalRemote)
		}
	}
	// Paper: native calls account for quite a large percentage for
	// JavaNote and Dia, a relatively small one for Biomer.
	if byApp["JavaNote"].NativeShare < 0.4 {
		t.Errorf("JavaNote native share %.0f%%, want large", byApp["JavaNote"].NativeShare*100)
	}
	if byApp["Dia"].NativeShare < 0.4 {
		t.Errorf("Dia native share %.0f%%, want large", byApp["Dia"].NativeShare*100)
	}
	if byApp["Biomer"].NativeShare > byApp["JavaNote"].NativeShare ||
		byApp["Biomer"].NativeShare > byApp["Dia"].NativeShare {
		t.Error("Biomer's native share must be relatively small (paper Figure 8)")
	}
}

func TestMonitoringOverheadShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r, err := suite().MonitoringOverhead()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~11% (31.59 s → 35.04 s).
	if r.OverheadFrac < 0.05 || r.OverheadFrac > 0.20 {
		t.Errorf("monitoring overhead %.1f%%, want ≈11%%", r.OverheadFrac*100)
	}
	if r.On <= r.Off {
		t.Error("monitoring must cost time")
	}
}

func TestFigure9Attribution(t *testing.T) {
	d, err := Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if !d.Expected {
		t.Fatalf("attribution wrong: %s", d)
	}
	if d.SelfA != 20*time.Millisecond || d.SelfB != 100*time.Millisecond {
		t.Fatalf("self times: %v / %v", d.SelfA, d.SelfB)
	}
}

func TestFigure10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().Figure10()
	if err != nil {
		t.Fatal(err)
	}
	byApp := map[string]Figure10Row{}
	for _, r := range rows {
		byApp[r.App] = r
	}
	// Voxel: initial no better than original; combined meaningfully
	// faster (paper: up to ~15%).
	v := byApp["Voxel"]
	if v.Initial < v.Original {
		t.Errorf("Voxel initial %v must not beat original %v", v.Initial, v.Original)
	}
	if v.Speedup() < 0.05 {
		t.Errorf("Voxel combined speedup %.1f%%, want >5%%", v.Speedup()*100)
	}
	if v.Native >= v.Initial {
		t.Error("Voxel native enhancement must improve on initial")
	}
	// Tracer: combined faster than original.
	tr := byApp["Tracer"]
	if tr.Speedup() < 0.03 {
		t.Errorf("Tracer combined speedup %.1f%%", tr.Speedup()*100)
	}
	// Biomer: the beneficial policy declines; combined equals original.
	b := byApp["Biomer"]
	if !b.Declined {
		t.Error("Biomer must decline to offload (paper §5.2)")
	}
	if b.Combined != b.Original {
		t.Errorf("declined Biomer must run locally: %v vs %v", b.Combined, b.Original)
	}
}

func TestBeneficialProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	checks, err := suite().Beneficial()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range checks {
		if c.Offloaded && c.Achieved > c.Original {
			t.Errorf("%s: offloaded but slower (%v > %v): offloading was not beneficial",
				c.App, c.Achieved, c.Original)
		}
		if !c.Offloaded && c.Achieved != c.Original {
			t.Errorf("%s: declined but time differs", c.App)
		}
	}
}

func TestAblationHeuristicsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().AblationHeuristics()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.MinCutOOM {
			t.Errorf("%s: the paper's heuristic must keep the application alive", r.App)
		}
		// The KL swap pass refines the same decision: never worse.
		if !r.MinCutKLOOM && r.MinCutKL > r.MinCut+1e-9 {
			t.Errorf("%s: KL refinement worsened overhead: %.3f vs %.3f", r.App, r.MinCutKL, r.MinCut)
		}
	}
}

func TestEnergyStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	rows, err := suite().EnergyStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LocalJ <= 0 || r.OffloadedJ <= 0 {
			t.Errorf("%s: degenerate energy: %+v", r.App, r)
		}
		// With an always-hot WaveLAN radio, offloading costs energy; with
		// 802.11 power save it must cost strictly less than always-on.
		if r.PSMOffloadedJ >= r.OffloadedJ {
			t.Errorf("%s: PSM did not reduce energy: %v vs %v", r.App, r.PSMOffloadedJ, r.OffloadedJ)
		}
	}
	// The CPU-bound applications must become battery-positive under PSM.
	for _, r := range rows {
		if (r.App == "Voxel" || r.App == "Tracer") && r.PSMSavingFrac <= 0 {
			t.Errorf("%s: compute offloading with PSM should save energy: %+v", r.App, r)
		}
	}
}

func TestHeapSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	points, err := suite().HeapSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("%d points", len(points))
	}
	// The smallest heap must be unrescuable; the largest must run
	// locally; 6 MiB must offload with modest overhead.
	if !points[0].OOM {
		t.Errorf("tiniest heap should OOM: %+v", points[0])
	}
	last := points[len(points)-1]
	if last.OOM || last.Offloaded {
		t.Errorf("roomiest heap should run locally: %+v", last)
	}
	for _, p := range points {
		if p.HeapMB == 6 {
			if p.OOM || !p.Offloaded || p.Overhead > 0.2 {
				t.Errorf("6 MiB point off: %+v", p)
			}
		}
	}
}

func TestLinkSweepMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	points, err := suite().LinkSweep()
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].OOM || points[i-1].OOM {
			t.Fatalf("link sweep point died: %+v", points[i])
		}
		if points[i].Overhead > points[i-1].Overhead {
			t.Errorf("overhead must not grow as the link improves: %s (%.1f%%) vs %s (%.1f%%)",
				points[i-1].Label, points[i-1].Overhead*100,
				points[i].Label, points[i].Overhead*100)
		}
	}
}
