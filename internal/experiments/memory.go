package experiments

import (
	"fmt"
	"strings"
	"time"

	"aide/internal/apps"
	"aide/internal/emulator"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/policy"
	"aide/internal/trace"
)

// Table1Row is one application-catalog entry (paper Table 1).
type Table1Row struct {
	Name        string
	Description string
	Profile     string
}

// Table1 reproduces the application catalog.
func Table1() []Table1Row {
	specs := apps.All()
	rows := make([]Table1Row, len(specs))
	for i, s := range specs {
		rows[i] = Table1Row{Name: s.Name, Description: s.Description, Profile: s.Profile}
	}
	return rows
}

// Table2Result reports JavaNote's execution metrics (paper Table 2).
type Table2Result struct {
	Stats trace.Stats
}

// String renders the paper's three-row table.
func (r Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %10s %10s %14s\n", "", "average", "maximum", "total events")
	fmt.Fprintf(&b, "%-14s %10.0f %10d %14d\n", "classes", r.Stats.ClassesAvg, r.Stats.ClassesMax, r.Stats.ClassEvents)
	fmt.Fprintf(&b, "%-14s %10.0f %10d %14d\n", "objects", r.Stats.ObjectsAvg, r.Stats.ObjectsMax, r.Stats.ObjectEvents)
	fmt.Fprintf(&b, "%-14s %10.0f %10d %14d\n", "interactions", r.Stats.LinksAvg, r.Stats.LinksMax, r.Stats.InteractionEvents)
	return b.String()
}

// Table2 computes the execution metrics of the JavaNote scenario.
func (s *Suite) Table2() (*Table2Result, error) {
	t, err := s.Trace("JavaNote")
	if err != nil {
		return nil, err
	}
	return &Table2Result{Stats: trace.ComputeStats(t)}, nil
}

// Figure5Result captures the JavaNote execution graph at the moment memory
// runs out and the partitioning that rescues it (paper Figure 5, §5.1
// "Avoiding Memory Constraints").
type Figure5Result struct {
	// Classes and Links describe the execution graph's size.
	Classes int
	Links   int

	// LiveBytes is the live heap at partition time; OffloadBytes is what
	// the partitioning moved; FractionOfLive and FractionOfHeap relate
	// them (the paper reports ~90% of the heap offloaded).
	LiveBytes      int64
	OffloadBytes   int64
	FractionOfLive float64
	FractionOfHeap float64

	// OffloadClasses counts classes moved to the surrogate.
	OffloadClasses int

	// PredictedBandwidthBps is the interaction bandwidth the history
	// predicts for the cut (paper: ~100 KB/s).
	PredictedBandwidthBps float64

	// HeuristicTime is the wall-clock cost of generating and scoring the
	// candidate partitionings (paper: ~0.1 s on a 600 MHz Pentium).
	HeuristicTime time.Duration

	// Survived reports that the run completed after offloading, and
	// FailsWithoutOffload that the same heap kills the unmodified run.
	Survived            bool
	FailsWithoutOffload bool

	// DOTBefore and DOTAfter render Figures 5a/5b in Graphviz format.
	DOTBefore, DOTAfter string
}

// String summarizes the rescue.
func (r Figure5Result) String() string {
	return fmt.Sprintf(
		"graph: %d classes, %d links; offloaded %d classes, %.0f KB (%.0f%% of live heap, %.0f%% of capacity); predicted bandwidth %.0f KB/s; heuristic %v; unmodified VM fails: %t; offloaded run survives: %t",
		r.Classes, r.Links, r.OffloadClasses, float64(r.OffloadBytes)/1024,
		r.FractionOfLive*100, r.FractionOfHeap*100,
		r.PredictedBandwidthBps/1024, r.HeuristicTime.Round(time.Millisecond),
		r.FailsWithoutOffload, r.Survived)
}

// Figure5 runs the JavaNote out-of-memory rescue on the constrained heap.
func (s *Suite) Figure5() (*Figure5Result, error) {
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, err
	}
	t, err := s.cache.Get(spec)
	if err != nil {
		return nil, err
	}

	// The unmodified VM: same constrained heap, no offloading.
	orig, err := emulator.Run(t, emulator.Config{
		Mode:           emulator.MemoryMode,
		HeapCapacity:   spec.EmuHeap,
		Link:           s.link,
		ClientSlowdown: MemoryClientSlowdown,
		DisableOffload: true,
	})
	if err != nil {
		return nil, err
	}

	// The platform: offloads when the trigger fires.
	res, err := emulator.Run(t, s.memoryConfig(spec, policy.InitialParams()))
	if err != nil {
		return nil, err
	}
	if !res.Offloaded || len(res.Partitions) == 0 {
		return nil, fmt.Errorf("experiments: figure 5: JavaNote did not partition")
	}
	part := res.Partitions[0]

	g, dec, heuristic, err := s.redecide(t, part, spec.EmuHeap)
	if err != nil {
		return nil, err
	}

	offloaded := make(map[graph.NodeID]bool)
	for _, n := range g.Nodes() {
		if !dec.InClient[n.ID] {
			offloaded[n.ID] = true
		}
	}
	live := g.TotalMemory()
	r := &Figure5Result{
		Classes:               g.Len(),
		Links:                 g.EdgeCount(),
		LiveBytes:             live,
		OffloadBytes:          part.TransferBytes,
		OffloadClasses:        dec.OffloadClasses,
		PredictedBandwidthBps: part.PredictedBandwidthBps,
		HeuristicTime:         heuristic,
		Survived:              !res.OOM,
		FailsWithoutOffload:   orig.OOM,
		DOTBefore:             g.DOT(nil),
		DOTAfter:              g.DOT(offloaded),
	}
	if live > 0 {
		r.FractionOfLive = float64(part.TransferBytes) / float64(live)
	}
	r.FractionOfHeap = float64(part.TransferBytes) / float64(spec.EmuHeap)
	return r, nil
}

// redecide rebuilds the graph a partition read, to render Figure 5a/5b,
// and recomputes the memory decision on it, timing the heuristic.
func (s *Suite) redecide(t *trace.Trace, part emulator.PartitionRecord, heap int64) (*graph.Graph, policy.Decision, time.Duration, error) {
	g := graphAt(t, part.EventIndex+1)
	start := s.now()
	cands, err := mincut.Candidates(mincut.FromGraph(g, graph.BytesWeight))
	if err != nil {
		return nil, policy.Decision{}, 0, err
	}
	mp := policy.MemoryPolicy{MinFreeFraction: policy.InitialParams().MinFreeFraction}
	dec, err := mp.Choose(g, heap, cands)
	if err != nil {
		return nil, policy.Decision{}, 0, fmt.Errorf("experiments: figure 5 repartition: %w", err)
	}
	return g, dec, s.now().Sub(start), nil
}

// graphAt replays the trace's first n events into a fresh monitor in one
// window, as the emulator feeds it, and returns the execution graph, with
// class metadata applied.
func graphAt(t *trace.Trace, n int) *graph.Graph {
	m := monitor.New(nil)
	m.OnEvents(t, t.Events[:min(n, len(t.Events))])
	return m.Graph()
}

// Figure6Row is one bar pair of Figure 6: original execution time and the
// remote-execution overhead added by offloading under the initial policy.
type Figure6Row struct {
	App          string
	Original     time.Duration
	Offloaded    time.Duration
	OverheadFrac float64
}

// String renders a paper-style row.
func (r Figure6Row) String() string {
	return fmt.Sprintf("%-9s original %8.1fs  offloaded %8.1fs  overhead %5.1f%%",
		r.App, r.Original.Seconds(), r.Offloaded.Seconds(), r.OverheadFrac*100)
}

// memoryApps are the three memory-study applications of §5.1.
var memoryApps = []string{"JavaNote", "Dia", "Biomer"}

// Figure6 measures the remote-execution overhead of the initial policy
// (threshold 5%, three reports, free ≥20%) for the three memory-study
// applications. The three applications replay concurrently.
func (s *Suite) Figure6() ([]Figure6Row, error) {
	return runAll(s.parallelism(), len(memoryApps), func(i int) (Figure6Row, error) {
		row, _, err := s.figure6One(memoryApps[i], policy.InitialParams())
		if err != nil {
			return Figure6Row{}, err
		}
		return *row, nil
	})
}

func (s *Suite) figure6One(name string, params policy.Params) (*Figure6Row, *emulator.Result, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, nil, err
	}
	// The original and offloaded replays are independent.
	res, err := runAll(s.parallelism(), 2, func(i int) (*emulator.Result, error) {
		if i == 0 {
			return s.run(spec, s.originalConfig(spec))
		}
		return s.run(spec, s.memoryConfig(spec, params))
	})
	if err != nil {
		return nil, nil, err
	}
	orig, off := res[0], res[1]
	if orig.OOM {
		return nil, nil, fmt.Errorf("experiments: %s original run must not exhaust the record heap", name)
	}
	if off.OOM {
		return nil, nil, fmt.Errorf("experiments: %s offloaded run died of OOM", name)
	}
	return &Figure6Row{
		App:          name,
		Original:     orig.Time,
		Offloaded:    off.Time,
		OverheadFrac: off.Overhead(orig.Time),
	}, off, nil
}

// Figure7Row compares the initial policy against the best policy found by
// the parameter sweep for one application.
type Figure7Row struct {
	App             string
	Original        time.Duration
	InitialOverhead float64
	BestOverhead    float64
	BestParams      policy.Params

	// ReductionFrac is how much of the initial overhead the best policy
	// removes (the paper reports 30–43% for Biomer and Dia, none for
	// JavaNote).
	ReductionFrac float64
}

// String renders a paper-style row.
func (r Figure7Row) String() string {
	return fmt.Sprintf("%-9s initial %5.1f%%  best %5.1f%% (%s)  overhead reduced %4.1f%%",
		r.App, r.InitialOverhead*100, r.BestOverhead*100, r.BestParams, r.ReductionFrac*100)
}

// Figure7 sweeps the policy space for the three memory-study applications.
// When coarse is true, a reduced grid (the corner points of each axis)
// keeps the sweep cheap for tests; the full grid matches the paper's
// ranges (trigger 2–50%, tolerance 1–3, min-free 10–80%).
func (s *Suite) Figure7(coarse bool) ([]Figure7Row, error) {
	space := policy.SweepSpace()
	if coarse {
		space = []policy.Params{
			{TriggerFreeFraction: 0.05, Tolerance: 3, MinFreeFraction: 0.20},
			{TriggerFreeFraction: 0.05, Tolerance: 3, MinFreeFraction: 0.10},
			{TriggerFreeFraction: 0.05, Tolerance: 1, MinFreeFraction: 0.10},
			{TriggerFreeFraction: 0.50, Tolerance: 1, MinFreeFraction: 0.10},
			{TriggerFreeFraction: 0.02, Tolerance: 3, MinFreeFraction: 0.40},
		}
	}
	return runAll(s.parallelism(), len(memoryApps), func(i int) (Figure7Row, error) {
		row, err := s.figure7One(memoryApps[i], space)
		if err != nil {
			return Figure7Row{}, err
		}
		return *row, nil
	})
}

// figure7One sweeps the policy space for one application. Every replay —
// the original, the initial policy, and each sweep point — is independent,
// so the whole grid fans out to the worker pool; the best-policy reduction
// then walks the results in sweep order, which keeps the selected
// parameters (ties break toward the earlier grid point, exactly as the
// serial loop did) independent of completion order.
func (s *Suite) figure7One(name string, space []policy.Params) (*Figure7Row, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	// Jobs: 0 = original, 1 = initial policy, 2+k = sweep point k.
	res, err := runAll(s.parallelism(), 2+len(space), func(i int) (*emulator.Result, error) {
		switch i {
		case 0:
			return s.run(spec, s.originalConfig(spec))
		case 1:
			return s.run(spec, s.memoryConfig(spec, policy.InitialParams()))
		default:
			return s.run(spec, s.memoryConfig(spec, space[i-2]))
		}
	})
	if err != nil {
		return nil, err
	}
	orig, initial := res[0], res[1]
	if orig.OOM {
		return nil, fmt.Errorf("experiments: %s original run must not exhaust the record heap", name)
	}
	if initial.OOM {
		return nil, fmt.Errorf("experiments: %s offloaded run died of OOM", name)
	}
	best := initial.Overhead(orig.Time)
	bestParams := policy.InitialParams()
	for k, p := range space {
		off := res[2+k]
		if off.OOM {
			continue // an unusable policy: the application died
		}
		if o := off.Overhead(orig.Time); o < best {
			best = o
			bestParams = p
		}
	}
	row := &Figure7Row{
		App:             name,
		Original:        orig.Time,
		InitialOverhead: initial.Overhead(orig.Time),
		BestOverhead:    best,
		BestParams:      bestParams,
	}
	if row.InitialOverhead > 0 {
		row.ReductionFrac = (row.InitialOverhead - row.BestOverhead) / row.InitialOverhead
	}
	return row, nil
}

// Figure8Row counts remote invocations and the subset leading to native
// calls for one application (paper Figure 8).
type Figure8Row struct {
	App         string
	TotalRemote int64
	Native      int64
	NativeShare float64
}

// String renders a paper-style row.
func (r Figure8Row) String() string {
	return fmt.Sprintf("%-9s remote invocations %6d  leading to native calls %6d (%4.1f%%)",
		r.App, r.TotalRemote, r.Native, r.NativeShare*100)
}

// Figure8 measures native-call pressure under the initial policy.
func (s *Suite) Figure8() ([]Figure8Row, error) {
	return runAll(s.parallelism(), len(memoryApps), func(i int) (Figure8Row, error) {
		name := memoryApps[i]
		_, off, err := s.figure6One(name, policy.InitialParams())
		if err != nil {
			return Figure8Row{}, err
		}
		row := Figure8Row{App: name, TotalRemote: off.RemoteInvocations, Native: off.RemoteNative}
		if row.TotalRemote > 0 {
			row.NativeShare = float64(row.Native) / float64(row.TotalRemote)
		}
		return row, nil
	})
}

// MonitoringResult reports the §5.1 monitoring-overhead measurement: the
// JavaNote scenario with monitoring off and on (paper: 31.59 s → 35.04 s,
// ≈11%).
type MonitoringResult struct {
	Off, On      time.Duration
	OverheadFrac float64
	Events       int64
}

// String renders the measurement.
func (r MonitoringResult) String() string {
	return fmt.Sprintf("monitoring off %.2fs, on %.2fs: overhead %.1f%% over %d events",
		r.Off.Seconds(), r.On.Seconds(), r.OverheadFrac*100, r.Events)
}

// MonitoringOverhead replays JavaNote on an unconstrained 8 MB-class heap
// (PC speed) with and without the per-event monitoring charge.
func (s *Suite) MonitoringOverhead() (*MonitoringResult, error) {
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, err
	}
	base := emulator.Config{
		Mode:           emulator.MemoryMode,
		HeapCapacity:   spec.RecordHeap,
		Link:           s.link,
		ClientSlowdown: 1, // the monitoring study ran on the 600 MHz PC
		DisableOffload: true,
	}
	off, err := s.run(spec, base)
	if err != nil {
		return nil, err
	}
	withCfg := base
	withCfg.MonitorCostPerEvent = MonitorCostPerEvent
	on, err := s.run(spec, withCfg)
	if err != nil {
		return nil, err
	}
	res := &MonitoringResult{Off: off.Time, On: on.Time, Events: on.Events}
	if off.Time > 0 {
		res.OverheadFrac = float64(on.Time-off.Time) / float64(off.Time)
	}
	return res, nil
}
