package aide

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§5), plus micro-benchmarks of the platform's hot
// paths. Run with:
//
//	go test -bench=. -benchmem
//
// Each experiment benchmark regenerates its artifact per iteration and
// reports the headline quantity as a custom metric, so the paper-vs-
// measured comparison of EXPERIMENTS.md can be refreshed from the bench
// output. cmd/aide-bench prints the same rows with the paper's values
// alongside.

import (
	"sync"
	"testing"
	"time"

	"aide/internal/apps"
	"aide/internal/emulator"
	"aide/internal/experiments"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/netmodel"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/trace"
	"aide/internal/vm"
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

// BenchmarkFigure6Overhead reruns the initial-policy overhead study
// (paper Figure 6: JavaNote 4.8%, Dia 8.5%, Biomer 27.5%).
func BenchmarkFigure6Overhead(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.Figure6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure6()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.OverheadFrac*100, "%ovh-"+r.App)
	}
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

// BenchmarkFigure8Native reruns the remote-native-invocation counts (paper
// Figure 8: large native share for JavaNote/Dia, small for Biomer).
func BenchmarkFigure8Native(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.Figure8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure8()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.NativeShare*100, "%native-"+r.App)
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

// BenchmarkFigure10CPU reruns the processing-constraint study (paper
// Figure 10: Voxel/Tracer improve up to ~15% with both enhancements;
// Biomer correctly declines).
func BenchmarkFigure10CPU(b *testing.B) {
	skipBench(b)
	s := suite(b)
	var rows []experiments.Figure10Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = s.Figure10()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Speedup()*100, "%speedup-"+r.App)
	}
}

// --- Platform micro-benchmarks -------------------------------------------

// BenchmarkMinCutCandidates measures the modified MINCUT heuristic on a
// JavaNote-scale execution graph (the paper reports ~0.1 s on a 600 MHz
// Pentium).
func BenchmarkMinCutCandidates(b *testing.B) {
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
	g := m.Graph()
	in := mincut.FromGraph(g, graph.BytesWeight)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mincut.Candidates(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartitionFresh measures one repartitioning step — dense input
// construction plus the MINCUT heuristic — allocating fresh buffers every
// call, as the emulator did before buffer reuse.
func BenchmarkRepartitionFresh(b *testing.B) {
	skipBench(b)
	g := repartitionGraph(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := mincut.FromGraph(g, graph.BytesWeight)
		if _, err := mincut.Candidates(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepartitionScratch is the same step through a mincut.Scratch,
// the emulator's current hot path: the N×N weight matrix, pinned slice,
// and connectivity array are amortized across calls.
func BenchmarkRepartitionScratch(b *testing.B) {
	skipBench(b)
	g := repartitionGraph(b)
	var sc mincut.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := sc.FromGraph(g, graph.BytesWeight)
		if _, err := sc.Candidates(in); err != nil {
			b.Fatal(err)
		}
	}
}

// repartitionGraph builds the JavaNote-scale execution graph both
// repartition benchmarks run against.
func repartitionGraph(b *testing.B) *graph.Graph {
	b.Helper()
	s := suite(b)
	tr, err := s.Trace("JavaNote")
	if err != nil {
		b.Fatal(err)
	}
	m := monitor.New(nil)
	for i := range tr.Events {
		m.Feed(tr, &tr.Events[i])
	}
	return m.Graph()
}

// BenchmarkStoerWagnerExact measures the exact global minimum cut on the
// same graph (the ablation baseline for the modified heuristic).
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

// BenchmarkMonitorFeed measures execution-monitoring throughput: events
// consumed per second while building the execution graph.
func BenchmarkMonitorFeed(b *testing.B) {
	skipBench(b)
	s := suite(b)
	tr, err := s.Trace("Dia")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := monitor.New(nil)
		for j := range tr.Events {
			m.Feed(tr, &tr.Events[j])
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// BenchmarkEmulatorReplay measures full trace-replay throughput with
// partitioning enabled.
func BenchmarkEmulatorReplay(b *testing.B) {
	skipBench(b)
	s := suite(b)
	tr, err := s.Trace("Dia")
	if err != nil {
		b.Fatal(err)
	}
	cfg := emulator.Config{
		Mode:           emulator.MemoryMode,
		HeapCapacity:   6 << 20,
		Link:           netmodel.WaveLAN(),
		ClientSlowdown: 10,
		GCBytesTrigger: 96 << 10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := emulator.Run(tr, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Events)), "events/op")
}

// BenchmarkVMInvokeLocal measures local method dispatch with monitoring
// attached.
func BenchmarkVMInvokeLocal(b *testing.B) {
	skipBench(b)
	reg := vm.NewRegistry()
	mustRegister(b, reg, vm.ClassSpec{
		Name:   "C",
		Fields: []string{"n"},
		Methods: []vm.MethodSpec{{
			Name: "inc",
			Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				v, err := th.GetField(self, "n")
				if err != nil {
					return vm.Nil(), err
				}
				return vm.Nil(), th.SetField(self, "n", vm.Int(v.I+1))
			},
		}},
	})
	v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	v.SetHooks(monitor.New(monitor.RegistryMeta(reg)))
	th := v.NewThread()
	id, err := th.New("C", 64)
	if err != nil {
		b.Fatal(err)
	}
	v.SetRoot("c", id)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Invoke(id, "inc"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRemoteInvoke measures a full remote invocation round trip over
// the in-memory transport (the RPC fast path of the prototype).
func BenchmarkRemoteInvoke(b *testing.B) {
	skipBench(b)
	reg := vm.NewRegistry()
	mustRegister(b, reg, vm.ClassSpec{
		Name: "Svc",
		Methods: []vm.MethodSpec{{
			Name: "echo",
			Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return args[0], nil
			},
		}},
	})
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 1 << 20})
	pc, ps := remote.NewPair(client, surrogate, remote.Options{Workers: 2})
	defer pc.Close()
	defer ps.Close()

	th := client.NewThread()
	id, err := th.New("Svc", 64)
	if err != nil {
		b.Fatal(err)
	}
	client.SetRoot("svc", id)
	if _, _, err := pc.Offload([]string{"Svc"}); err != nil {
		b.Fatal(err)
	}
	arg := vm.Int(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := th.Invoke(id, "echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOffloadMigration measures object-batch migration throughput.
func BenchmarkOffloadMigration(b *testing.B) {
	skipBench(b)
	reg := vm.NewRegistry()
	mustRegister(b, reg, vm.ClassSpec{Name: "Data", Fields: []string{"next"}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
		surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 64 << 20})
		pc, ps := remote.NewPair(client, surrogate, remote.Options{Workers: 2})
		th := client.NewThread()
		var prev vm.ObjectID
		for j := 0; j < 1000; j++ {
			id, err := th.New("Data", 1024)
			if err != nil {
				b.Fatal(err)
			}
			if prev != vm.InvalidObject {
				if err := th.SetField(id, "next", vm.RefOf(prev)); err != nil {
					b.Fatal(err)
				}
			}
			client.SetRoot("head", id)
			prev = id
			th.ClearTemps()
		}
		b.StartTimer()
		if n, _, err := pc.Offload([]string{"Data"}); err != nil || n != 1000 {
			b.Fatalf("offload: %d, %v", n, err)
		}
		b.StopTimer()
		pc.Close()
		ps.Close()
		b.StartTimer()
	}
	b.ReportMetric(1000, "objects/op")
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

// BenchmarkPolicyChoose measures memory-policy evaluation over a
// JavaNote-scale candidate family.
func BenchmarkPolicyChoose(b *testing.B) {
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
	g := m.Graph()
	cands, err := mincut.Candidates(mincut.FromGraph(g, graph.BytesWeight))
	if err != nil {
		b.Fatal(err)
	}
	mp := policy.MemoryPolicy{MinFreeFraction: 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Choose(g, 6<<20, cands); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkRecallRoundTrip measures offload + recall of a 1,000-object
// working set: the §8 "global placement" reverse path.
func BenchmarkRecallRoundTrip(b *testing.B) {
	skipBench(b)
	reg := vm.NewRegistry()
	mustRegister(b, reg, vm.ClassSpec{Name: "Data", Fields: []string{"next"}})
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 64 << 20})
	pc, ps := remote.NewPair(client, surrogate, remote.Options{Workers: 2})
	defer pc.Close()
	defer ps.Close()
	th := client.NewThread()
	var prev vm.ObjectID
	for j := 0; j < 1000; j++ {
		id, err := th.New("Data", 512)
		if err != nil {
			b.Fatal(err)
		}
		if prev != vm.InvalidObject {
			if err := th.SetField(id, "next", vm.RefOf(prev)); err != nil {
				b.Fatal(err)
			}
		}
		client.SetRoot("head", id)
		prev = id
		th.ClearTemps()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := pc.Offload([]string{"Data"}); err != nil {
			b.Fatal(err)
		}
		if _, _, err := pc.Recall([]string{"Data"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2000, "migrations/op")
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
