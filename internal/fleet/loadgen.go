package fleet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aide"
	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// Loadgen latency metric names (registered when Config.Telemetry is set).
const (
	metricLoadgenSessionSeconds = "aide_loadgen_session_seconds"
	metricLoadgenOpSeconds      = "aide_loadgen_op_seconds"
)

// Config sizes one load-generation run.
type Config struct {
	// Sessions is the total number of simulated tenant sessions. Zero
	// defaults to 100.
	Sessions int
	// Concurrency bounds the sessions in flight at once. Zero defaults
	// to 16.
	Concurrency int
	// Ops is the number of remote invocations each session issues after
	// offloading its state. Zero defaults to 4.
	Ops int
	// BytesPerSession is each session's offloaded object size. Zero
	// defaults to 64 KiB.
	BytesPerSession int64
	// RefreshEvery re-probes the fleet after this many dispatched
	// sessions. Zero defaults to 64.
	RefreshEvery int
	// CallTimeout bounds each session's remote calls. Zero defaults to
	// 5 s.
	CallTimeout time.Duration
	// DrainEvery, when positive, orders a live drain of one fleet target
	// (round-robin, after a refresh so a destination is always available)
	// every DrainEvery dispatched sessions. Draining needs sessions that
	// can re-home, so the run drives full aide.Client sessions with live
	// handoff support instead of raw wire peers.
	DrainEvery int
	// Telemetry, when set, records session and per-op latency histograms
	// (aide_loadgen_*) in the registry.
	Telemetry *telemetry.Registry
	// Logf, when set, receives session-teardown errors. A session is
	// already accounted by the time its peer closes, so close errors
	// carry no signal for the report and are only worth a log line.
	Logf func(format string, args ...any)
}

// Report is what a load-generation run measured. Latency percentiles are
// exact (computed over every recorded duration, not bucket-interpolated).
type Report struct {
	Sessions  int   // sessions dispatched
	Completed int64 // sessions that ran every op and verified their state
	Failed    int64 // sessions that died mid-run (disconnect, timeout, error)
	Unplaced  int64 // sessions no target admitted

	// Typed session-control outcomes observed client-side.
	Rejected int64 // attach attempts refused by admission control
	Shed     int64 // attach attempts refused by load shedding

	// Drain outcomes (only populated when Config.DrainEvery is set).
	Drains      int64 // live target drains that completed
	DrainErrors int64 // drain orders that failed

	// CrossTenantFailures counts sessions whose verified state did not
	// match what the session itself wrote — the isolation property the
	// whole refactor exists to keep at zero.
	CrossTenantFailures int64

	SessionP50 time.Duration
	SessionP99 time.Duration
	OpP50      time.Duration
	OpP99      time.Duration

	// Placed counts completed sessions per target name.
	Placed map[string]int64

	// TargetStats carries the surrogate-side session-control counters
	// for in-process (LocalTarget) fleets; eviction in particular is
	// only reliably visible surrogate-side (an evicted client usually
	// observes a plain disconnect).
	TargetStats map[string]aide.SurrogateStats
}

// Evicted sums surrogate-side evictions across the fleet.
func (r *Report) Evicted() int64 {
	var n int64
	for _, st := range r.TargetStats {
		n += st.Evicted
	}
	return n
}

// WorkloadClass is the tenant workload's class name.
const WorkloadClass = "Acct"

// WorkloadRegistry builds the load generator's class registry: one
// "Acct" class with a "bal" field and a non-native "add" method, so the
// method body executes on whichever VM hosts the object — exactly the
// transparent-invocation path real tenants exercise.
func WorkloadRegistry() (*vm.Registry, error) {
	reg := vm.NewRegistry()
	_, err := reg.Register(vm.ClassSpec{
		Name:   WorkloadClass,
		Fields: []string{"bal"},
		Methods: []vm.MethodSpec{
			{Name: "add", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				cur, err := th.GetField(self, "bal")
				if err != nil {
					return vm.Nil(), err
				}
				n := cur.I + args[0].I
				return vm.Int(n), th.SetField(self, "bal", vm.Int(n))
			}},
		},
	})
	if err != nil {
		return nil, err
	}
	return reg, nil
}

// Run drives cfg.Sessions simulated tenant sessions against the
// coordinator's fleet. Each session dials the best-ranked target,
// attaches (admission control), offloads a private object tagged with a
// session-unique balance, invokes the remote method Ops times, and
// verifies the final state — a mismatch is a cross-tenant interference
// failure. Sessions run Concurrency at a time; the coordinator refreshes
// every RefreshEvery dispatches so placement follows live occupancy.
func Run(ctx context.Context, coord *Coordinator, reg *vm.Registry, cfg Config) (*Report, error) {
	if cfg.Sessions <= 0 {
		cfg.Sessions = 100
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 16
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 4
	}
	if cfg.BytesPerSession <= 0 {
		cfg.BytesPerSession = 64 << 10
	}
	if cfg.RefreshEvery <= 0 {
		cfg.RefreshEvery = 64
	}
	if cfg.CallTimeout <= 0 {
		cfg.CallTimeout = 5 * time.Second
	}
	var sessH, opH *telemetry.Histogram
	if cfg.Telemetry != nil {
		sessH = cfg.Telemetry.Histogram(metricLoadgenSessionSeconds,
			"End-to-end latency of one simulated tenant session.", telemetry.DefaultLatencyBuckets())
		opH = cfg.Telemetry.Histogram(metricLoadgenOpSeconds,
			"Latency of one remote invocation inside a session.", telemetry.DefaultLatencyBuckets())
	}

	coord.Refresh(ctx)

	r := &Report{Sessions: cfg.Sessions, Placed: make(map[string]int64), TargetStats: make(map[string]aide.SurrogateStats)}
	var completed, failed, unplaced, rejected, shed, crossTenant atomic.Int64
	var mu sync.Mutex
	sessLat := make([]time.Duration, 0, cfg.Sessions)
	opLat := make([]time.Duration, 0, cfg.Sessions*cfg.Ops)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				var target string
				var sdur time.Duration
				var ops []time.Duration
				var err error
				if cfg.DrainEvery > 0 {
					target, sdur, ops, err = runLiveSession(ctx, coord, reg, cfg, i, &rejected, &shed)
				} else {
					target, sdur, ops, err = runSession(ctx, coord, reg, cfg, i, &rejected, &shed)
				}
				mu.Lock()
				opLat = append(opLat, ops...)
				if err == nil {
					sessLat = append(sessLat, sdur)
					r.Placed[target]++
				}
				mu.Unlock()
				if opH != nil {
					for _, d := range ops {
						opH.Observe(d)
					}
				}
				switch {
				case err == nil:
					completed.Add(1)
					if sessH != nil {
						sessH.Observe(sdur)
					}
				case errors.Is(err, errUnplaced):
					unplaced.Add(1)
				case errors.Is(err, errCrossTenant):
					crossTenant.Add(1)
					failed.Add(1)
				default:
					failed.Add(1)
				}
			}
		}()
	}

	var drains, drainErrs int64
	names := coord.TargetNames()
	drainIdx := 0
	var dispatchErr error
dispatch:
	for i := 0; i < cfg.Sessions; i++ {
		if i > 0 && i%cfg.RefreshEvery == 0 {
			coord.Refresh(ctx)
		}
		if cfg.DrainEvery > 0 && i > 0 && i%cfg.DrainEvery == 0 && len(names) > 1 {
			// Refresh first: it clears the bench, so the round-robin victim
			// always has a destination candidate even in a two-target fleet.
			coord.Refresh(ctx)
			from := names[drainIdx%len(names)]
			drainIdx++
			if dest, derr := coord.Drain(ctx, from); derr != nil {
				drainErrs++
				if cfg.Logf != nil {
					cfg.Logf("fleet: drain %s: %v", from, derr)
				}
			} else {
				drains++
				if cfg.Logf != nil {
					cfg.Logf("fleet: drained %s -> %s", from, dest)
				}
			}
		}
		select {
		case idx <- i:
		case <-ctx.Done():
			dispatchErr = ctx.Err()
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	r.Drains = drains
	r.DrainErrors = drainErrs
	r.Completed = completed.Load()
	r.Failed = failed.Load()
	r.Unplaced = unplaced.Load()
	r.Rejected = rejected.Load()
	r.Shed = shed.Load()
	r.CrossTenantFailures = crossTenant.Load()
	r.SessionP50, r.SessionP99 = percentiles(sessLat)
	r.OpP50, r.OpP99 = percentiles(opLat)
	for _, t := range coord.Candidates() {
		if lt, ok := t.(*LocalTarget); ok {
			r.TargetStats[lt.TargetName] = lt.Surrogate.Stats()
		}
	}
	return r, dispatchErr
}

// Session-outcome sentinels, internal to the report bookkeeping.
var (
	errUnplaced    = errors.New("fleet: session unplaced")
	errCrossTenant = errors.New("fleet: cross-tenant state corruption")
)

// runSession runs one simulated tenant end to end. It returns the target
// name, the session's wall time, and the per-op latencies it measured
// before any failure.
func runSession(ctx context.Context, coord *Coordinator, reg *vm.Registry, cfg Config, i int, rejected, shed *atomic.Int64) (string, time.Duration, []time.Duration, error) {
	start := time.Now()
	cvm := vm.New(reg, vm.Config{
		Role:         vm.RoleClient,
		HeapCapacity: 4*cfg.BytesPerSession + 1<<16,
	})
	var peer *remote.Peer
	target, err := coord.Place(ctx, func(t Target) error {
		tr, derr := t.Dial(ctx)
		if derr != nil {
			return derr
		}
		p := remote.NewPeer(cvm, tr, remote.Options{Workers: 1, CallTimeout: cfg.CallTimeout})
		if _, aerr := p.Attach(ctx); aerr != nil {
			switch {
			case errors.Is(aerr, remote.ErrAdmissionRejected):
				rejected.Add(1)
			case errors.Is(aerr, remote.ErrShed):
				shed.Add(1)
			}
			cvm.DetachPeer(p.VMIndex())
			if cerr := p.Close(); cerr != nil {
				return fmt.Errorf("close rejected session: %w (after %w)", cerr, aerr)
			}
			return aerr
		}
		peer = p
		return nil
	})
	if err != nil {
		return "", 0, nil, fmt.Errorf("%w: %w", errUnplaced, err)
	}
	name := target.Name()
	defer func() {
		cvm.DetachPeer(peer.VMIndex())
		if cerr := peer.Close(); cerr != nil && cfg.Logf != nil {
			cfg.Logf("fleet: close session %d: %v", i, cerr)
		}
	}()

	th := cvm.NewThread()
	obj, err := th.New(WorkloadClass, cfg.BytesPerSession)
	if err != nil {
		return name, 0, nil, err
	}
	cvm.SetRoot("acct", obj)
	base := int64(i+1) * 1_000_000
	if err := th.SetField(obj, "bal", vm.Int(base)); err != nil {
		return name, 0, nil, err
	}
	if _, _, err := peer.OffloadContext(ctx, []string{WorkloadClass}); err != nil {
		return name, 0, nil, fmt.Errorf("offload: %w", err)
	}
	ops := make([]time.Duration, 0, cfg.Ops)
	for j := 0; j < cfg.Ops; j++ {
		t0 := time.Now()
		_, err := th.Invoke(obj, "add", vm.Int(1))
		ops = append(ops, time.Since(t0))
		if err != nil {
			return name, 0, ops, fmt.Errorf("op %d: %w", j, err)
		}
	}
	got, err := th.GetField(obj, "bal")
	if err != nil {
		return name, 0, ops, fmt.Errorf("verify: %w", err)
	}
	if want := base + int64(cfg.Ops); got.I != want {
		return name, 0, ops, fmt.Errorf("%w: session %d read balance %d, want %d", errCrossTenant, i, got.I, want)
	}
	return name, time.Since(start), ops, nil
}

// runLiveSession is runSession over a full aide.Client instead of a raw
// wire peer: the client carries the live-handoff machinery (snapshot
// handler, drain redirect, slot takeover), so a mid-run Coordinator.Drain
// moves the session to another surrogate with the op sequence intact.
// The client's dialer resolves fleet target names, letting handoffs
// re-home over channel transports as well as TCP.
func runLiveSession(ctx context.Context, coord *Coordinator, reg *vm.Registry, cfg Config, i int, rejected, shed *atomic.Int64) (string, time.Duration, []time.Duration, error) {
	start := time.Now()
	client := aide.NewClient(reg,
		aide.WithHeap(3*cfg.BytesPerSession+1<<13),
		aide.WithCallTimeout(cfg.CallTimeout),
		aide.WithDialer(func(dctx context.Context, name string) (remote.Transport, error) {
			t := coord.lookup(name)
			if t == nil {
				return nil, fmt.Errorf("fleet: handoff to unknown target %q", name)
			}
			return t.Dial(dctx)
		}),
	)
	defer func() {
		if cerr := client.Close(); cerr != nil && cfg.Logf != nil {
			cfg.Logf("fleet: close live session %d: %v", i, cerr)
		}
	}()
	target, err := coord.Place(ctx, func(t Target) error {
		tr, derr := t.Dial(ctx)
		if derr != nil {
			return derr
		}
		aerr := client.AttachContext(ctx, tr)
		switch {
		case errors.Is(aerr, remote.ErrAdmissionRejected):
			rejected.Add(1)
		case errors.Is(aerr, remote.ErrShed):
			shed.Add(1)
		}
		return aerr
	})
	if err != nil {
		return "", 0, nil, fmt.Errorf("%w: %w", errUnplaced, err)
	}
	name := target.Name()

	th := client.Thread()
	obj, err := th.New(WorkloadClass, cfg.BytesPerSession)
	if err != nil {
		return name, 0, nil, err
	}
	client.VM().SetRoot("acct", obj)
	base := int64(i+1) * 1_000_000
	if err := th.SetField(obj, "bal", vm.Int(base)); err != nil {
		return name, 0, nil, err
	}
	ops := make([]time.Duration, 0, cfg.Ops)
	op := func(j int) error {
		t0 := time.Now()
		_, err := th.Invoke(obj, "add", vm.Int(1))
		ops = append(ops, time.Since(t0))
		if err != nil {
			return fmt.Errorf("op %d: %w", j, err)
		}
		return nil
	}
	// One op before offloading gives the monitor an interaction graph to
	// partition; the rest run against whichever surrogate hosts the object.
	if err := op(0); err != nil {
		return name, 0, ops, err
	}
	if _, err := client.OffloadContext(ctx); err != nil {
		return name, 0, ops, fmt.Errorf("offload: %w", err)
	}
	for j := 1; j < cfg.Ops; j++ {
		if err := op(j); err != nil {
			return name, 0, ops, err
		}
	}
	got, err := th.GetField(obj, "bal")
	if err != nil {
		return name, 0, ops, fmt.Errorf("verify: %w", err)
	}
	if want := base + int64(cfg.Ops); got.I != want {
		return name, 0, ops, fmt.Errorf("%w: session %d read balance %d, want %d", errCrossTenant, i, got.I, want)
	}
	return name, time.Since(start), ops, nil
}

// percentiles returns the exact p50 and p99 of the recorded durations.
func percentiles(lat []time.Duration) (p50, p99 time.Duration) {
	if len(lat) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) time.Duration {
		i := int(float64(len(sorted)-1) * q)
		return sorted[i]
	}
	return at(0.50), at(0.99)
}
