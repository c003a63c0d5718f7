package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"time"
)

// Layer probes: the per-layer metrics of a traced run. Each probe times
// calls into one layer's public functions from outside, on fixed inputs
// (never the run's seed), so a number means the same thing on every
// workload and commit. Every timed batch is also a span on a track of
// the run's recorder, and several metrics are read back from spans —
// the repartition and offload stages are made one call at a time so
// that each stage is its own span under one parent.

// runProbes fills rc.layer with every per-layer metric the workload run
// did not already report.
func runProbes(ctx context.Context, rc *runCtx) error {
	ts, err := rc.recordTraces()
	if err != nil {
		return err
	}
	pr := &prober{rc: rc, ts: ts, tk: rc.rec.track()}
	for _, group := range []func(context.Context) error{
		pr.vmAndSnapshot, pr.monitorAndGraph, pr.partitioning, pr.codec, pr.transport,
		pr.peerAndSurrogate, pr.client, pr.emulator,
	} {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := group(ctx); err != nil {
			return err
		}
	}
	return nil
}

type prober struct {
	rc *runCtx
	ts *traceSet
	tk *track

	// plainAppMs is vm.app_plain_ms, which monitor.app_overhead_ms is
	// measured against.
	plainAppMs float64
}

// appRuns is how often a probe runs a whole application.
func (p *prober) appRuns() int {
	if p.rc.quick {
		return 1
	}
	return 2
}

// budget is the measuring time of one probe.
func (p *prober) budget() time.Duration { return p.rc.phase(0.015) }

// timeBatches calls f in batches of batch calls until the probe budget
// is spent (at least three batches) and returns one sample per batch:
// nanoseconds per call.
func (p *prober) timeBatches(ctx context.Context, span string, batch int, f func() error) ([]float64, error) {
	var ns []float64
	err := p.rc.until(ctx, p.budget(), 3, func(int) error {
		id := p.tk.begin(span)
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := f(); err != nil {
				p.tk.end(id)
				return fmt.Errorf("%s: %w", span, err)
			}
		}
		d := time.Since(t0)
		p.tk.end(id)
		ns = append(ns, float64(d)/float64(batch))
		return nil
	})
	return ns, err
}

// measure is timeBatches reported straight into a per-layer metric;
// unitNs is how many nanoseconds one unit of the metric holds.
func (p *prober) measure(ctx context.Context, metric string, unitNs float64, batch int, f func() error) error {
	ns, err := p.timeBatches(ctx, metric, batch, f)
	if err != nil {
		return err
	}
	p.rc.layerSamples(metric, scaled(ns, 1/unitNs))
	p.rc.ok(len(ns))
	return nil
}

// spanUs returns the durations, in microseconds, of the probe track's
// spans with the given name, starting at span index from.
func (p *prober) spanUs(name string, from int) []float64 {
	var us []float64
	for _, s := range p.tk.spans[from:] {
		if s.Name == name && s.End > s.Start {
			us = append(us, float64(s.End-s.Start)/1e3)
		}
	}
	return us
}

// exact reports a count that must repeat bit-for-bit and checks it
// against the golden.
func (p *prober) exact(metric string, v float64) {
	p.rc.layerCount(metric, v)
	if p.rc.gold.equal("probe."+metric, strconv.FormatFloat(v, 'f', -1, 64)) {
		p.rc.ok(1)
	} else {
		p.rc.bad(1, "%s = %v, golden differs", metric, v)
	}
}

// allocsPer runs f n times and returns heap allocations and bytes per
// call, process-wide: both ends of an in-process connection count.
func allocsPer(n int, f func() error) (allocs, bytes float64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n), nil
}

const (
	nsPerUs = 1e3
	nsPerMs = 1e6
)
