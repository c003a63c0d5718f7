// Package policy implements AIDE's triggering and partitioning policies
// (paper §3.3–§3.4, §5).
//
// A trigger decides *when* to consider offloading: the prototype fires when
// consecutive garbage-collection cycles report that memory is nearly
// exhausted, or on periodic re-evaluation. A partitioning policy decides
// *whether and what* to offload: it evaluates the candidate partitionings
// produced by the modified MINCUT heuristic against resource constraints
// and a cost function, and selects the candidate that best satisfies the
// overall policy — or rejects offloading entirely when no candidate is
// beneficial.
package policy

import (
	"errors"
	"fmt"
	"time"

	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/netmodel"
	"aide/internal/telemetry"
)

// ErrNotBeneficial is returned when no candidate partitioning satisfies the
// policy: the platform should keep the application local (paper §5.2:
// "the system determined that there was no beneficial partitioning, and
// correctly decided not to offload any objects").
var ErrNotBeneficial = errors.New("policy: no beneficial partitioning")

// Decision describes the partitioning a policy selected.
type Decision struct {
	// InClient[v] reports whether the class with graph NodeID v stays on
	// the client.
	InClient []bool

	// CutWeight is the policy cost-function value of the chosen cut.
	CutWeight float64

	// OffloadBytes is the memory occupied by objects of offloaded classes:
	// the amount of Java heap the offload frees on the client.
	OffloadBytes int64

	// OffloadClasses is the number of classes placed on the surrogate.
	OffloadClasses int

	// CutBytes is the historical information transfer across the cut, used
	// to predict interaction bandwidth.
	CutBytes int64

	// CutInteractions is the historical interaction-event count across the
	// cut.
	CutInteractions int64

	// OffloadCPU is the recorded CPU time attributed to offloaded classes.
	OffloadCPU time.Duration

	// PredictedTime is the predicted application execution time under this
	// placement (CPU policies only; zero for memory policies).
	PredictedTime time.Duration
}

// Offloads reports whether the decision moves anything to the surrogate.
func (d *Decision) Offloads() bool { return d.OffloadClasses > 0 }

// evaluate fills the placement-derived fields of a Decision for a
// candidate.
func evaluate(g *graph.Graph, c mincut.Candidate) Decision {
	d := Decision{
		InClient:  c.InClient,
		CutWeight: c.CutWeight,
	}
	for _, n := range g.Nodes() {
		if !c.InClient[n.ID] {
			d.OffloadBytes += n.Memory
			d.OffloadClasses++
			d.OffloadCPU += n.CPUTime
		}
	}
	g.EdgesFunc(func(e *graph.Edge) {
		if c.InClient[e.A] != c.InClient[e.B] {
			d.CutBytes += e.Bytes
			d.CutInteractions += e.Interactions()
		}
	})
	return d
}

// MemoryPolicy selects a partitioning that relieves a memory constraint:
// any acceptable partitioning must free memory, at least MinFreeFraction
// of the Java heap, and among acceptable candidates the one minimizing
// the cost function (historical bytes transferred across the cut) wins.
// Conceptually this offloads a sufficient amount of information while
// placing the smallest demand on network bandwidth (paper §3.3).
type MemoryPolicy struct {
	// MinFreeFraction is the minimum fraction of the heap capacity that an
	// acceptable partitioning must free (paper §5.1 uses 0.20).
	MinFreeFraction float64

	// Chosen and Rejected, when non-nil, count decision outcomes: Chosen
	// increments when a candidate is accepted, Rejected when every
	// candidate fails the policy (ErrNotBeneficial). Nil-safe no-ops
	// otherwise, so the deterministic replay paths are unaffected.
	Chosen, Rejected *telemetry.Counter
}

// Choose evaluates the candidates against the policy. heapCapacity is the
// client Java heap size in bytes. Selection is ChooseDense over g's
// per-class memory; only the winner pays the full-graph walk that fills
// the history-derived fields.
func (p MemoryPolicy) Choose(g *graph.Graph, heapCapacity int64, cands []mincut.Candidate) (Decision, error) {
	nodes := g.Nodes() // ID order, so the index is the vertex ID
	mem := make([]int64, len(nodes))
	for v, n := range nodes {
		mem[v] = n.Memory
	}
	d, err := p.ChooseDense(mem, heapCapacity, cands)
	if err != nil {
		return Decision{}, err
	}
	return evaluate(g, mincut.Candidate{InClient: d.InClient, CutWeight: d.CutWeight}), nil
}

// ChooseDense is Choose for the incremental repartition path, where no
// full graph snapshot exists: mem[v] is the live memory attributed to
// the class with vertex ID v (maintained from graph deltas). It is the
// one acceptance rule and cost ranking; the returned
// Decision carries only placement, CutWeight, OffloadBytes, and
// OffloadClasses — the history-derived fields (CutBytes,
// CutInteractions, OffloadCPU) stay zero because computing them would
// reintroduce the O(edges) full-graph walk this path exists to avoid.
func (p MemoryPolicy) ChooseDense(mem []int64, heapCapacity int64, cands []mincut.Candidate) (Decision, error) {
	if heapCapacity <= 0 {
		return Decision{}, fmt.Errorf("policy: heap capacity %d must be positive", heapCapacity)
	}
	need := int64(p.MinFreeFraction * float64(heapCapacity))
	var best Decision
	found := false
	for _, c := range cands {
		// Sum bytes only for a candidate that can win; even the hard-
		// pressure retry (need 0) must free memory.
		if c.Offloaded == 0 || found && !(c.CutWeight < best.CutWeight) {
			continue
		}
		d := Decision{InClient: c.InClient, CutWeight: c.CutWeight, OffloadClasses: c.Offloaded}
		for v, m := range mem {
			if v < len(c.InClient) && !c.InClient[v] {
				d.OffloadBytes += m
			}
		}
		if d.OffloadBytes < need || d.OffloadBytes <= 0 {
			continue
		}
		best, found = d, true
	}
	if !found {
		p.Rejected.Inc()
		return Decision{}, ErrNotBeneficial
	}
	p.Chosen.Inc()
	return best, nil
}

// CPUPolicy selects a partitioning that relieves a processing constraint:
// it predicts, from the execution history, the application execution time
// under every candidate placement — class CPU time runs at surrogate speed
// when offloaded, and every cut interaction is charged a remote round trip
// — and picks the fastest. Offloading only happens when the prediction
// beats local execution (beneficial offloading, paper §2, §5.2).
type CPUPolicy struct {
	// Speedup is the surrogate CPU speed relative to the client (the paper
	// measured 3.5 between a PC and a Jornada 547).
	Speedup float64

	// ClientSlowdown scales the graph's recorded CPU times (measured at
	// tracing-PC speed) to the client device's speed. Zero defaults to 1.
	ClientSlowdown float64

	// Link models the client↔surrogate network.
	Link netmodel.Link

	// StatelessNativeLocal mirrors the §5.2 native enhancement in the
	// prediction: cut edges whose pinned endpoint is a stateless-native
	// class cost nothing, because those invocations execute on the
	// calling device.
	StatelessNativeLocal bool

	// ArrayGranularity mirrors the §5.2 array enhancement: cut edges
	// touching a primitive-array pseudo-class are discounted, because
	// each array object is placed with its dominant user and only the
	// minority of its traffic still crosses.
	ArrayGranularity bool

	// MinCPUFraction is the share of recorded CPU time a candidate must
	// offload to count as relieving the processing constraint; candidates
	// below it are ignored. Zero defaults to 0.25. Without this floor the
	// cheapest "offload" is a handful of idle classes, which relieves
	// nothing.
	MinCPUFraction float64
}

// arrayDiscount is the fraction of an array edge's cost that survives
// object-granularity placement: the minority-side traffic.
const arrayDiscount = 0.5

func (p CPUPolicy) slowdown() float64 {
	if p.ClientSlowdown <= 0 {
		return 1
	}
	return p.ClientSlowdown
}

// LocalTime returns the predicted all-on-client execution time implied by
// the execution history.
func (p CPUPolicy) LocalTime(g *graph.Graph) time.Duration {
	return time.Duration(float64(g.TotalCPU()) * p.slowdown())
}

// Predict returns the predicted execution time of the candidate placement.
func (p CPUPolicy) Predict(g *graph.Graph, inClient []bool) time.Duration {
	var total time.Duration
	for _, n := range g.Nodes() {
		t := float64(n.CPUTime) * p.slowdown()
		if !inClient[n.ID] {
			t /= p.Speedup
		}
		total += time.Duration(t)
	}
	g.EdgesFunc(func(e *graph.Edge) {
		if inClient[e.A] != inClient[e.B] {
			total += time.Duration(float64(p.commCost(e)) * p.edgeFactor(g, e))
		}
	})
	return total
}

// edgeFactor scales a cut edge's communication cost for the active
// enhancements: stateless natives execute where invoked (free), and array
// objects follow their dominant user (discounted).
func (p CPUPolicy) edgeFactor(g *graph.Graph, e *graph.Edge) float64 {
	a, b := g.Node(e.A), g.Node(e.B)
	if p.StatelessNativeLocal && ((a.Pinned && a.Stateless) || (b.Pinned && b.Stateless)) {
		return 0
	}
	if p.ArrayGranularity && (a.Array || b.Array) {
		return arrayDiscount
	}
	return 1
}

// commCost charges a cut edge its historical interactions as remote round
// trips: one RTT per interaction plus serialization of all transferred
// bytes and per-message headers.
func (p CPUPolicy) commCost(e *graph.Edge) time.Duration {
	count := e.Interactions()
	if count == 0 {
		return 0
	}
	perMsg := p.Link.RPC(0, 0) // RTT + two headers
	bits := float64(e.Bytes) * 8
	payload := time.Duration(bits / p.Link.BandwidthBps * float64(time.Second))
	return time.Duration(count)*perMsg + payload
}

// ChooseBest evaluates the candidates and returns the placement with the
// lowest predicted execution time, whether or not it beats local execution.
// Figure 10's "Initial"/"Native"/"Array" study bars force the offload this
// way to expose the granularity and native-method effects.
func (p CPUPolicy) ChooseBest(g *graph.Graph, cands []mincut.Candidate) (Decision, error) {
	if p.Speedup <= 0 {
		return Decision{}, fmt.Errorf("policy: speedup %v must be positive", p.Speedup)
	}
	minCPU := p.MinCPUFraction
	if minCPU <= 0 {
		minCPU = 0.25
	}
	need := time.Duration(float64(g.TotalCPU()) * minCPU)
	var best Decision
	found := false
	for _, c := range cands {
		d := evaluate(g, c)
		if d.OffloadClasses == 0 || d.OffloadCPU < need {
			continue
		}
		d.PredictedTime = p.Predict(g, c.InClient)
		if !found || d.PredictedTime < best.PredictedTime {
			best = d
			found = true
		}
	}
	if !found {
		return Decision{}, ErrNotBeneficial
	}
	return best, nil
}

// Choose evaluates the candidates and returns the fastest placement if it
// beats local execution ("beneficial offloading", paper §2).
func (p CPUPolicy) Choose(g *graph.Graph, cands []mincut.Candidate) (Decision, error) {
	best, err := p.ChooseBest(g, cands)
	if err != nil {
		return Decision{}, err
	}
	if local := p.LocalTime(g); best.PredictedTime >= local {
		// Report the best rejected prediction so callers can show the
		// "790 s predicted vs 750 s local" style comparison.
		return best, fmt.Errorf("%w: best predicted %v vs local %v",
			ErrNotBeneficial, best.PredictedTime, local)
	}
	return best, nil
}
