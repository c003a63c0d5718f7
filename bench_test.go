package aide

// testing.B benches for the artifacts nothing else times: Tables 1-2,
// Figures 5, 7 and 9, the monitoring-overhead, ablation and energy
// studies, exact Stoer–Wagner, trace record/stats and the link model. Run
// with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark regenerates its artifact per iteration and
// reports the headline quantity as a custom metric. Everything with a
// metric in the repository benchmark — invoke, migrate and recall,
// repartitioning, monitor ingest, emulator replay, Figures 6, 8 and 10 —
// is measured there and only there: bash benchmark/run.sh.

import (
	"sync"
	"testing"
	"time"

	"aide/internal/apps"
	"aide/internal/experiments"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/netmodel"
	"aide/internal/trace"
)

var (
	benchOnce  sync.Once
	benchSuite *experiments.Suite
)

func suite(b *testing.B) *experiments.Suite {
	b.Helper()
	benchOnce.Do(func() { benchSuite = experiments.NewSuite() })
	return benchSuite
}

// BenchmarkTable1Apps regenerates the application catalog (paper Table 1).
func BenchmarkTable1Apps(b *testing.B) {
	skipBench(b)
	for i := 0; i < b.N; i++ {
		if rows := experiments.Table1(); len(rows) != 5 {
			b.Fatal("catalog broken")
		}
	}
}

// BenchmarkTable2Metrics recomputes JavaNote's execution metrics (paper
// Table 2: classes 134/138/138, objects 1230/2810/6808, interactions
// 1126/1190/1186532).
func BenchmarkTable2Metrics(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var last *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := s.Table2()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.Stats.ClassEvents), "classes")
	b.ReportMetric(float64(last.Stats.InteractionEvents), "interaction-events")
}

// BenchmarkFigure5Partition reruns the JavaNote out-of-memory rescue
// (paper Figure 5: ~90% of the heap offloaded, ~100 KB/s predicted
// bandwidth, ~0.1 s heuristic).
func BenchmarkFigure5Partition(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		r, err := s.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.FractionOfHeap*100, "%heap-offloaded")
	b.ReportMetric(float64(last.HeuristicTime.Microseconds()), "heuristic-µs")
}

// BenchmarkFigure7PolicySweep reruns the policy-parameter sweep (paper
// Figure 7: Biomer/Dia overhead reduced 30–43%, JavaNote unchanged). The
// coarse grid keeps per-iteration cost manageable; `go run ./cmd/aide-bench
// -only figure7 -full` runs the complete 168-point grid.
func BenchmarkFigure7PolicySweep(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ReductionFrac*100, "%reduction-"+r.App)
	}
}

// BenchmarkFigure7PolicySweepParallel is the same sweep with an 8-wide
// worker pool: the speedup over BenchmarkFigure7PolicySweep is the
// experiment engine's parallel efficiency (the output is bit-identical;
// TestGoldenParallelDeterminism checks that).
func BenchmarkFigure7PolicySweepParallel(b *testing.B) {
	skipBench(b)
	s := suite(b)
	old := s.Parallelism
	s.Parallelism = 8
	defer func() { s.Parallelism = old }()
	var rows []experiments.Figure7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure7(true)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ReductionFrac*100, "%reduction-"+r.App)
	}
}

// BenchmarkMonitoringOverhead reruns the §5.1 monitoring-overhead
// measurement (paper: 31.59 s → 35.04 s, ≈11%).
func BenchmarkMonitoringOverhead(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var last *experiments.MonitoringResult
	for i := 0; i < b.N; i++ {
		r, err := s.MonitoringOverhead()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.OverheadFrac*100, "%overhead")
}

// BenchmarkFigure9Attribution reruns the nested-call time-attribution
// example (paper Figure 9: a::f 0.12 s total → a 0.02 s, b 0.10 s).
func BenchmarkFigure9Attribution(b *testing.B) {
	skipBench(b)
	for i := 0; i < b.N; i++ {
		d, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if !d.Expected {
			b.Fatal("attribution broken")
		}
	}
}

// --- Platform micro-benchmarks -------------------------------------------

// BenchmarkStoerWagnerExact measures the exact global minimum cut on a
// JavaNote-scale execution graph (the ablation baseline for the modified
// heuristic).
func BenchmarkStoerWagnerExact(b *testing.B) {
	skipBench(b)
	s := suite(b)
	tr, err := s.Trace("JavaNote")
	if err != nil {
		b.Fatal(err)
	}
	m := monitor.New(nil)
	for i := range tr.Events {
		m.Feed(tr, &tr.Events[i])
	}
	in := mincut.FromGraph(m.Graph(), graph.BytesWeight)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mincut.GlobalMinCut(in.N, in.Weight); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRecordJavaNote measures full-scenario trace extraction
// through the live VM (the paper's trace-acquisition step).
func BenchmarkTraceRecordJavaNote(b *testing.B) {
	skipBench(b)
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tr, err := apps.Record(spec)
		if err != nil {
			b.Fatal(err)
		}
		if len(tr.Events) == 0 {
			b.Fatal("empty trace")
		}
	}
}

// BenchmarkTraceStats measures Table 2 statistics computation.
func BenchmarkTraceStats(b *testing.B) {
	skipBench(b)
	s := suite(b)
	tr, err := s.Trace("JavaNote")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := trace.ComputeStats(tr)
		if st.InteractionEvents == 0 {
			b.Fatal("no interactions")
		}
	}
}

// BenchmarkLinkModel measures network-cost computation.
func BenchmarkLinkModel(b *testing.B) {
	skipBench(b)
	l := netmodel.WaveLAN()
	var sink time.Duration
	for i := 0; i < b.N; i++ {
		sink += l.RPC(int64(i%4096), 64)
	}
	_ = sink
}

// BenchmarkAblationHeuristics compares partitioning-heuristic variants
// (extension of the paper's §8: modified MINCUT vs KL-refined vs greedy
// memory-density) under the Figure 6 setup.
func BenchmarkAblationHeuristics(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.AblationHeuristics()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MinCut*100, "%mincut-"+r.App)
		b.ReportMetric(r.MinCutKL*100, "%mincutKL-"+r.App)
		b.ReportMetric(r.Greedy*100, "%greedy-"+r.App)
	}
}

// BenchmarkEnergyStudy measures the battery-life extension study (paper
// §2/§8): client energy local vs offloaded, always-on radio vs 802.11
// power-save.
func BenchmarkEnergyStudy(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.EnergyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.EnergyStudy()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.PSMSavingFrac*100, "%psm-saving-"+r.App)
	}
}

// skipBench skips heavyweight benchmarks when the binary runs with the
// race detector (5-20x slowdown makes `go test -race ./...` crawl) or in
// -short mode. Correctness under -race is covered by the regular tests.
func skipBench(b *testing.B) {
	b.Helper()
	if raceEnabled {
		b.Skip("skipping benchmark under the race detector")
	}
	if testing.Short() {
		b.Skip("skipping benchmark in short mode")
	}
}
