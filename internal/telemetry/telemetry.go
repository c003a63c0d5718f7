// Package telemetry is AIDE's dependency-free observability core: atomic
// counters, gauges and fixed-bucket histograms collected in a named
// registry, plus a bounded ring of structured offload events (tracer.go)
// and live exposition in Prometheus text and JSON form (prom.go, http.go).
//
// The package is built so that instrumentation costs nothing when it is
// switched off:
//
//   - every instrument method is nil-safe — a nil *Counter, *Gauge,
//     *Histogram or *Tracer is a no-op, so "disabled" is a nil check on
//     the hot path (no branch on configuration, no allocation);
//   - a nil *Registry hands out nil instruments, so a layer wired
//     without telemetry carries nil fields all the way down;
//   - the tracer additionally gates on an atomic enabled flag so a
//     wired-but-quiet tracer stays allocation-free.
//
// Determinism contract: the registry and tracer never read the wall
// clock directly — they call an injectable clock (defaulting to
// time.Now) so the simulated-time test rigs stay bit-identical; aide-vet's
// detcheck, scoped to this package, flags any direct wall-clock read.
// Metric names are lowercase_snake: a registration under any other name
// is refused and recorded as a problem that Registry.Check reports.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// MetricKind discriminates the families a registry can hold.
type MetricKind uint8

const (
	KindCounter MetricKind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind as it appears in snapshots and TYPE lines.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// family is one named metric and every instrument registered under that
// name. Registering the same name again hands back a fresh child, so
// per-peer (or per-VM) code keeps a private instrument to read back
// while exposition sums the children into one series.
type family struct {
	name   string
	help   string
	kind   MetricKind
	unit   HistUnit
	bounds []int64

	counters []*Counter
	gauges   []*Gauge
	fns      []func() int64
	hists    []*Histogram
}

// Registry is a named collection of metric families. The zero value is
// not usable; construct with New or NewWithClock. A nil *Registry is a
// valid "telemetry off" registry: every registration returns a nil
// (no-op) instrument.
//
// Registration never panics (rpcerr bans library panics): malformed or
// conflicting registrations are recorded as problems — retrievable via
// Check — and the caller receives a live but unregistered instrument so
// its own reads keep working.
type Registry struct {
	now func() time.Time

	mu       sync.Mutex
	families map[string]*family
	problems []string
}

// New builds a registry stamping snapshots with the wall clock.
func New() *Registry { return NewWithClock(time.Now) }

// NewWithClock builds a registry with an injectable clock (simulated
// time in tests; time.Now in production).
func NewWithClock(now func() time.Time) *Registry {
	if now == nil {
		now = time.Now
	}
	return &Registry{now: now, families: make(map[string]*family)}
}

// validMetricName reports whether name is lowercase_snake: it must
// match ^[a-z][a-z0-9_]*$, the Prometheus exposition convention. Every
// registration passes through it (lookupLocked), so a bad name is a
// problem Registry.Check reports, not a malformed /metrics line.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c == '_' && i > 0:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// lookup finds-or-creates the family for a registration and reports
// whether the registration is compatible with it. It records a problem
// and returns nil on mismatch. Called with r.mu held.
func (r *Registry) lookupLocked(name, help string, kind MetricKind, unit HistUnit, bounds []int64) *family {
	if !validMetricName(name) {
		r.problems = append(r.problems, fmt.Sprintf("metric %q: name must be lowercase_snake ([a-z][a-z0-9_]*)", name))
		return nil
	}
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, unit: unit, bounds: bounds}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		r.problems = append(r.problems, fmt.Sprintf("metric %q: registered as %s and %s", name, f.kind, kind))
		return nil
	}
	if kind == KindHistogram && !sameBounds(f.bounds, bounds, f.unit, unit) {
		r.problems = append(r.problems, fmt.Sprintf("metric %q: histogram re-registered with different buckets", name))
		return nil
	}
	return f
}

func sameBounds(a, b []int64, ua, ub HistUnit) bool {
	if ua != ub || len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter registers a monotonically increasing counter under name and
// returns a fresh child instrument. On a nil registry it returns nil
// (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	c := &Counter{}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookupLocked(name, help, KindCounter, 0, nil)
	if f == nil {
		return c // live but unregistered; the problem is queued for Check
	}
	f.counters = append(f.counters, c)
	return c
}

// Gauge registers a gauge (a value that can go down) under name and
// returns a fresh child instrument. Children are summed at scrape.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	g := &Gauge{}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookupLocked(name, help, KindGauge, 0, nil)
	if f == nil {
		return g
	}
	f.gauges = append(f.gauges, g)
	return g
}

// GaugeFunc registers a gauge sampled by calling fn at scrape time. fn
// must be safe to call from the exposition goroutine and must not touch
// this registry (it runs with the registry lock held).
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookupLocked(name, help, KindGauge, 0, nil)
	if f == nil {
		return
	}
	f.fns = append(f.fns, fn)
}

// Histogram registers a duration histogram with the given ascending
// bucket upper bounds and returns a fresh child instrument. Exposition
// renders bounds in seconds (Prometheus convention).
func (r *Registry) Histogram(name, help string, bounds []time.Duration) *Histogram {
	if r == nil {
		return nil
	}
	b := make([]int64, len(bounds))
	for i, d := range bounds {
		b[i] = int64(d)
	}
	return r.histogram(name, help, UnitNanoseconds, b)
}

// SizeHistogram registers a histogram over dimensionless integer values
// (batch sizes, object counts) with the given ascending upper bounds.
func (r *Registry) SizeHistogram(name, help string, bounds []int64) *Histogram {
	if r == nil {
		return nil
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return r.histogram(name, help, UnitCount, b)
}

func (r *Registry) histogram(name, help string, unit HistUnit, bounds []int64) *Histogram {
	if !ascending(bounds) {
		h := newHistogram(unit, nil)
		r.mu.Lock()
		r.problems = append(r.problems, fmt.Sprintf("metric %q: histogram bounds must be non-empty and strictly ascending", name))
		r.mu.Unlock()
		return h
	}
	h := newHistogram(unit, bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookupLocked(name, help, KindHistogram, unit, bounds)
	if f == nil {
		return h
	}
	f.hists = append(f.hists, h)
	return h
}

func ascending(b []int64) bool {
	if len(b) == 0 {
		return false
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			return false
		}
	}
	return true
}

// Check returns an error describing every malformed registration seen
// so far, or nil if the registry is clean. Mirrors the rpcerr rule that
// libraries surface misuse as errors, never panics.
func (r *Registry) Check() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.problems) == 0 {
		return nil
	}
	msg := r.problems[0]
	if n := len(r.problems); n > 1 {
		msg = fmt.Sprintf("%s (and %d more)", msg, n-1)
	}
	return fmt.Errorf("telemetry: %s", msg)
}

// Problems returns a copy of every registration problem recorded.
func (r *Registry) Problems() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.problems))
	copy(out, r.problems)
	return out
}

// FamilySnapshot is the aggregated point-in-time state of one metric
// family: children registered under the same name are summed into a
// single series.
type FamilySnapshot struct {
	Name      string        `json:"name"`
	Help      string        `json:"help,omitempty"`
	Kind      string        `json:"kind"`
	Value     int64         `json:"value"`
	Histogram *HistSnapshot `json:"histogram,omitempty"`
}

// Snapshot is the whole registry at one instant, families sorted by
// name so output is deterministic.
type Snapshot struct {
	TakenAt  time.Time        `json:"taken_at"`
	Families []FamilySnapshot `json:"families"`
}

// Snapshot captures every family. The per-instrument reads are atomic
// and each histogram snapshot is internally consistent (its count is
// derived from its bucket sums), so a snapshot taken mid-increment is
// always a valid state of the system.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	snap := Snapshot{TakenAt: r.now(), Families: make([]FamilySnapshot, 0, len(names))}
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		switch f.kind {
		case KindCounter:
			for _, c := range f.counters {
				fs.Value += c.Value()
			}
		case KindGauge:
			for _, g := range f.gauges {
				fs.Value += g.Value()
			}
			for _, fn := range f.fns {
				fs.Value += fn()
			}
		case KindHistogram:
			hs := &HistSnapshot{Unit: f.unit.String(), Bounds: f.bounds}
			hs.Buckets = make([]int64, len(f.bounds)+1)
			for _, h := range f.hists {
				h.accumulate(hs)
			}
			for _, b := range hs.Buckets {
				hs.Count += b
			}
			fs.Histogram = hs
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}
