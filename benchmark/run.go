package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// metricValue is one metric as one run measured it: the reported value
// plus the spread of the samples behind it.
type metricValue struct {
	Name  string `json:"name"`
	Alias *alias `json:"alias,omitempty"`
	Unit  string `json:"unit"`

	// Value is what the run reports: the median of its samples, unless
	// the metric is defined as another statistic (a p99, a ratio, a count).
	Value float64 `json:"value"`
	summary
}

// runCtx is one run of one workload: its inputs (seed, duration, whether
// spans are recorded) and everything it measured.
type runCtx struct {
	wl      *workloadDecl
	seed    int64
	seconds float64

	// oneEpoch gives the run a single epoch — one fixture, built once,
	// and traces recorded earlier in this process reused instead of
	// recorded again. Traced and quick runs set it; the timed set-ups of
	// a full untraced run never do.
	oneEpoch bool

	// epochShare is the share of the run one epoch measures for, epoch
	// the index of the one being measured.
	epochShare float64
	epoch      int

	// quick shrinks every phase to its minimum iteration count (smoke
	// test scale).
	quick bool

	rec  *recorder // nil when spans are off
	main *track    // the run goroutine's track; nil when spans are off

	gold *goldenSet

	attempted int64
	failed    int64
	notes     []string // first few failure reasons, for the report

	setupS []float64
	e2e    map[string]metricValue
	layer  map[string]metricValue
	extras []metricValue
}

func newRunCtx(wl *workloadDecl, seed int64, seconds float64, gold *goldenSet) *runCtx {
	return &runCtx{
		wl: wl, seed: seed, seconds: seconds, gold: gold, epochShare: 1,
		e2e: map[string]metricValue{}, layer: map[string]metricValue{},
	}
}

func (rc *runCtx) traced() *runCtx {
	rc.rec = newRecorder()
	rc.main = rc.rec.track()
	rc.oneEpoch = true
	return rc
}

// phase returns the measuring time a phase gets in the current epoch:
// frac of the epoch's share of the run.
func (rc *runCtx) phase(frac float64) time.Duration {
	return time.Duration(rc.seconds * rc.epochShare * frac * float64(time.Second))
}

// until repeats op until d has elapsed, and at least min times so that
// quick runs still emit every metric.
func (rc *runCtx) until(ctx context.Context, d time.Duration, min int, op func(i int) error) error {
	deadline := time.Now().Add(d)
	for i := 0; i < min || (!rc.quick && time.Now().Before(deadline)); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := op(i); err != nil {
			return err
		}
	}
	return nil
}

// A run is cut into epochs. Each epoch builds the workload's fixture
// afresh — timed, which is where setup_s comes from — measures on it for
// its share of the run, and tears it down. A workload whose fixture is
// cheap takes many epochs, because what a process measures on one
// connection depends on which threads the connection's goroutines were
// placed on: one gives a lone caller 8.4 us round trips, the next 13 us.
// emu_replay, whose fixture is the five recorded traces (1.5-2.5 s to
// build), takes three, enough for a median set-up time: four recordings
// replayed in turn in one process differ no more than one recording does
// from one minute to the next, so further recordings would buy nothing
// but set-up.
const (
	epochs = 5

	// The rpc workloads, whose fixture is built in 20-60 ms: twenty
	// connections show a run both kinds, in the proportion the host
	// gives them at the time.
	rpcEpochs = 20

	// emu_replay. repartition records the traces too but keeps the five:
	// its incremental path, 21 us a round, costs what the placement of
	// its matrices makes it cost, and spread by 17.5% between runs over
	// three fixtures against 10.2% over five.
	emuEpochs = 3

	// Cheap set-ups are built more often than there are epochs, until
	// setupBudget has been spent on them, so that a 20 ms set-up is not
	// judged on five samples.
	maxSetups   = 25
	setupBudget = time.Second
)

// eachEpoch runs build, measure and discard once per epoch; setup_s is
// the median of the build times. Traced and quick runs have one epoch.
func (rc *runCtx) eachEpoch(n int, build func() error, measure func() error, discard func()) error {
	if rc.oneEpoch {
		n = 1
	}
	rc.epochShare = 1 / float64(n)
	var spent time.Duration
	for i := 0; ; i++ {
		id := rc.main.begin("bench.setup")
		t0 := time.Now()
		err := build()
		d := time.Since(t0)
		rc.main.end(id)
		if err == nil {
			rc.setupS = append(rc.setupS, d.Seconds())
			spent += d
			if i < n {
				rc.epoch = i
				err = measure()
			}
		}
		discard()
		if err != nil {
			return fmt.Errorf("%s epoch %d: %w", rc.wl.Name, i+1, err)
		}
		if i+1 >= n && (rc.oneEpoch || i+1 >= maxSetups || spent >= setupBudget) {
			return nil
		}
		settle() // the discarded fixture (150 MB of traces, for two workloads) goes before the next is built
	}
}

// rotate runs the phases of one epoch in their order, beginning one
// phase further on in each epoch. What a phase measures depends on what
// the connection carried before it — a lone caller's round trips are
// slower after several callers have shared the connection — so over a
// run every phase follows every other, and the samples hold both cases
// in the same proportion whatever the seed.
func (rc *runCtx) rotate(phases ...func() error) error {
	for k := range phases {
		if err := phases[(rc.epoch+k)%len(phases)](); err != nil {
			return err
		}
	}
	return nil
}

// settle collects garbage before a long operation is timed, so that
// every sample starts from the same heap state and no sample inherits a
// collection another one caused. Operations of microseconds run back to
// back and take the collector as it comes.
func settle() { runtime.GC() }

func (rc *runCtx) ok(n int) { rc.attempted += int64(n) }

// bad counts n attempted operations as failed: an error, a refusal or a
// wrong answer.
func (rc *runCtx) bad(n int, format string, args ...any) {
	rc.attempted += int64(n)
	rc.failed += int64(n)
	if len(rc.notes) < 8 {
		rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
	}
}

func declOf(table []metricDecl, name string) metricDecl {
	for _, d := range table {
		if d.Name == name {
			return d
		}
	}
	panic("benchmark: metric " + name + " is not declared in manifest.go")
}

// slot reports an end-to-end metric as the median of its samples; the
// quartiles and the sample count travel with it in every printed row and
// report.
func (rc *runCtx) slot(name string, samples []float64) {
	s := summarize(samples)
	rc.slotValue(name, s.Median, s)
}

func (rc *runCtx) slotValue(name string, v float64, s summary) {
	d := declOf(endToEnd, name)
	m := metricValue{Name: name, Unit: d.Unit, Value: v, summary: s}
	if a, ok := rc.wl.Alias[name]; ok {
		m.Alias = &a
	}
	rc.e2e[name] = m
}

// layerSamples reports a per-layer metric as the median of its samples.
func (rc *runCtx) layerSamples(name string, samples []float64) {
	s := summarize(samples)
	rc.layerValue(name, s.Median, s)
}

func (rc *runCtx) layerValue(name string, v float64, s summary) {
	d := declOf(perLayer, name)
	rc.layer[name] = metricValue{Name: name, Unit: d.Unit, Value: v, summary: s}
}

func (rc *runCtx) layerCount(name string, v float64) {
	rc.layerValue(name, v, summary{N: 1, Median: v, P25: v, P75: v})
}

// extra reports a descriptive number that is printed and stored with
// the run but is not one of the gated slots.
func (rc *runCtx) extra(name, unit string, samples []float64) {
	s := summarize(samples)
	rc.extras = append(rc.extras, metricValue{Name: name, Unit: unit, Value: s.Median, summary: s})
}

func (rc *runCtx) finish() {
	if len(rc.setupS) > 0 {
		s := summarize(rc.setupS)
		rc.slotValue(mSetup, s.Median, s)
	}
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rc *runCtx) resultLine(traced bool) (resultLine, error) {
	rl := resultLine{Correct: rc.failed == 0, Attempted: rc.attempted, Failed: rc.failed, Metrics: map[string]resultValue{}}
	table, got := endToEnd, rc.e2e
	if traced {
		table, got = perLayer, rc.layer
	}
	for _, d := range table {
		m, ok := got[d.Name]
		if !ok {
			return rl, fmt.Errorf("%s: metric %s was not measured", rc.wl.Name, d.Name)
		}
		rl.Metrics[d.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	if rl.Attempted < 1 {
		return rl, fmt.Errorf("%s: nothing attempted", rc.wl.Name)
	}
	return rl, nil
}

func sortedMetrics(m map[string]metricValue, table []metricDecl) []metricValue {
	out := make([]metricValue, 0, len(m))
	for _, d := range table {
		if v, ok := m[d.Name]; ok {
			out = append(out, v)
		}
	}
	return out
}

// shown is how a row names a metric: an end-to-end slot goes under its
// workload's own name and unit, k slot units to one of those, with the
// slot in brackets; any other metric under its own.
func shown(name, unit string, a *alias) (label, u string, k float64) {
	if a == nil {
		return name, unit, 1
	}
	return a.Name + " [" + name + "]", a.Unit, a.PerSlot
}

func printMetric(w io.Writer, m metricValue) {
	label, unit, k := shown(m.Name, m.Unit, m.Alias)
	fmt.Fprintf(w, "  %-46s %16.4f %-6s n=%-7d p50=%.4f p25=%.4f p75=%.4f\n", label, m.Value*k, unit, m.N, m.Median*k, m.P25*k, m.P75*k)
}

func (rc *runCtx) print(w io.Writer) {
	fmt.Fprintf(w, "workload %s seed %d seconds %.2f traced %v (loopback TCP and in-process only; closed loop, 1 caller or %d, GOMAXPROCS %d)\n",
		rc.wl.Name, rc.seed, rc.seconds, rc.rec != nil, callers, runtime.GOMAXPROCS(0))
	for _, m := range sortedMetrics(rc.e2e, endToEnd) {
		printMetric(w, m)
	}
	for _, m := range rc.extras {
		printMetric(w, m)
	}
	for _, m := range sortedMetrics(rc.layer, perLayer) {
		printMetric(w, m)
	}
	fmt.Fprintf(w, "  attempted %d failed %d failed_frac %.6f peak_rss_MB %.0f\n",
		rc.attempted, rc.failed, failedFrac(rc.attempted, rc.failed), float64(sampleRT().maxRSS)/1024)
	for _, n := range rc.notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
}

func failedFrac(attempted, failed int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// callers is the closed-loop client count of the multi-caller phases:
// goroutines of this one process sharing one connection, as many as the
// host has processors and at most two.
var callers = min(2, runtime.NumCPU())

// rtSample reads the process's resource use; two samples bracket the
// traced workload.
type rtSample struct {
	wall   time.Time
	cpu    time.Duration
	maxRSS int64 // KiB on Linux
	mem    runtime.MemStats
}

func sampleRT() rtSample {
	s := rtSample{wall: time.Now()}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		s.maxRSS = int64(ru.Maxrss)
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

func (rc *runCtx) reportRT(a, b rtSample) {
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	rc.layerCount("rt.cpu_s", cpu)
	busy := 0.0
	if wall > 0 {
		busy = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	rc.layerCount("rt.cpu_busy_frac", busy)
	rc.layerCount("rt.num_gc", float64(b.mem.NumGC-a.mem.NumGC))
	rc.layerCount("rt.gc_pause_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	rc.layerCount("rt.alloc_MB", float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1e6)
	rc.layerCount("rt.peak_rss_MB", float64(b.maxRSS)/1024)
}

// runUntraced is the run end-to-end metrics come from: spans off.
func runUntraced(ctx context.Context, wl *workloadDecl, seed int64, seconds float64, quick bool, gold *goldenSet) (*runCtx, error) {
	rc := newRunCtx(wl, seed, seconds, gold)
	if quick {
		rc.quick, rc.oneEpoch = true, true
	}
	if err := wl.Run(ctx, rc); err != nil {
		return nil, err
	}
	rc.finish()
	return rc, nil
}

// runTraced is the separate run per-layer metrics come from. It runs
// the workload twice at reduced length — an eighth with spans off, a
// quarter with spans on, whose ratio is the tracing overhead — and then
// the layer probes, each wrapped in spans of its own.
func runTraced(ctx context.Context, wl *workloadDecl, seed int64, seconds float64, quick bool, gold *goldenSet) (*runCtx, error) {
	plain := newRunCtx(wl, seed, seconds/8, gold)
	plain.oneEpoch, plain.quick = true, quick
	if err := wl.Run(ctx, plain); err != nil {
		return nil, err
	}

	rc := newRunCtx(wl, seed, seconds/4, gold).traced()
	rc.quick = quick
	before := sampleRT()
	if err := wl.Run(ctx, rc); err != nil {
		return nil, err
	}
	rc.reportRT(before, sampleRT())
	rc.finish()

	overhead := 0.0
	if p := plain.e2e[mOpA].Value; p > 0 {
		overhead = rc.e2e[mOpA].Value/p - 1
	}
	rc.layerCount("bench.trace_overhead_frac", overhead)

	if err := runProbes(ctx, rc); err != nil {
		return nil, err
	}
	rc.attempted += plain.attempted
	rc.failed += plain.failed
	rc.notes = append(rc.notes, plain.notes...)
	return rc, nil
}
