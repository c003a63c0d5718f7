// Package emulator implements AIDE's trace-driven emulation (paper §4).
//
// The emulator replaces the VM with a wrapper that plays back execution and
// resource traces into the same monitoring and partitioning modules the
// prototype uses. Distributed execution of a trace is assumed equivalent to
// serial execution: after partitioning, execution moves between the two
// emulated VMs synchronously, and remote communication is simulated by
// stretching simulated execution time to account for remote invocations and
// data accesses over the modeled link.
package emulator

import (
	"errors"
	"fmt"
	"time"

	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/netmodel"
	"aide/internal/policy"
	"aide/internal/trace"
)

// Heuristic selects the candidate-partitioning algorithm (the paper's §8
// names "additional partitioning heuristics" as future work; the greedy
// density heuristic is provided as an ablation baseline).
type Heuristic int

// Partitioning heuristics.
const (
	// HeuristicModifiedMinCut is the paper's §3.3 algorithm (default).
	HeuristicModifiedMinCut Heuristic = iota

	// HeuristicGreedyDensity grows the offload set by memory freed per
	// unit of cut weight.
	HeuristicGreedyDensity
)

// Mode selects which resource constraint drives offloading.
type Mode int

// Emulation modes.
const (
	// MemoryMode offloads to relieve memory constraints (paper §5.1):
	// garbage-collection reports feed a MemoryTrigger, and the
	// MemoryPolicy picks a partitioning that frees enough heap.
	MemoryMode Mode = iota + 1

	// CPUMode offloads to relieve processing constraints (paper §5.2):
	// the placement is re-evaluated periodically and the CPUPolicy
	// offloads only when the predicted distributed time beats local
	// execution.
	CPUMode
)

// Config parametrizes an emulation run.
type Config struct {
	// Mode selects memory- or CPU-constrained offloading.
	Mode Mode

	// HeapCapacity is the emulated client Java heap in bytes.
	HeapCapacity int64

	// Link models the client↔surrogate network (the paper uses WaveLAN).
	Link netmodel.Link

	// SurrogateSpeedup is the surrogate/client CPU speed ratio (1.0 in
	// the memory experiments, 3.5 in the processing experiments).
	SurrogateSpeedup float64

	// ClientSlowdown scales trace self-times (recorded at the tracing
	// PC's speed) to the emulated client's speed: the paper's client
	// device is an HP Jornada, several times slower than the PC that
	// recorded the trace. 1.0 emulates a PC-speed client.
	ClientSlowdown float64

	// ForceCPUOffload applies the best predicted CPU partitioning even
	// when it does not beat local execution (the Figure 10 study bars).
	ForceCPUOffload bool

	// MinOffloadCPUFraction is the share of recorded CPU time a CPU-mode
	// candidate must offload (policy.CPUPolicy.MinCPUFraction). Zero
	// defaults to 0.2.
	MinOffloadCPUFraction float64

	// Params are the trigger/partitioning policy parameters (memory
	// mode).
	Params policy.Params

	// ReevalEvery is the periodic re-evaluation interval of simulated
	// time (CPU mode). Zero defaults to 10 simulated seconds.
	ReevalEvery time.Duration

	// StatelessNativeLocal executes stateless native methods (math
	// functions etc.) on the device where they are invoked (§5.2
	// enhancement).
	StatelessNativeLocal bool

	// ArrayGranularity places primitive-array objects individually, at
	// object rather than class granularity (§5.2 enhancement).
	ArrayGranularity bool

	// MaxPartitions bounds how many times the emulator repartitions.
	// Zero defaults to 1 (the prototype performs a single offloading);
	// the emulator supports repeated repartitioning.
	MaxPartitions int

	// MonitorCostPerEvent charges simulated time per monitored event,
	// modeling the prototype's measured ~11% monitoring overhead. Zero
	// disables the charge.
	MonitorCostPerEvent time.Duration

	// DisableOffload replays without ever partitioning: the original,
	// client-only execution (the paper's "Original" bars). An
	// out-of-memory condition then aborts the run.
	DisableOffload bool

	// GC trigger thresholds; zeros choose Chai-like defaults.
	GCObjectTrigger int64
	GCBytesTrigger  int64

	// Heuristic selects the candidate-partitioning algorithm; the zero
	// value is the paper's modified MINCUT.
	Heuristic Heuristic

	// KLRefine applies a Kernighan–Lin improvement pass to the chosen
	// partitioning (ablation). The refined placement is applied only if
	// the policy that chose the original accepts it on its own.
	KLRefine bool
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = MemoryMode
	}
	if c.SurrogateSpeedup <= 0 {
		c.SurrogateSpeedup = 1
	}
	if c.ClientSlowdown <= 0 {
		c.ClientSlowdown = 1
	}
	if c.MaxPartitions <= 0 {
		c.MaxPartitions = 1
	}
	if c.ReevalEvery <= 0 {
		c.ReevalEvery = 10 * time.Second
	}
	if c.HeapCapacity <= 0 {
		c.HeapCapacity = 64 << 20
	}
	if c.GCObjectTrigger <= 0 {
		c.GCObjectTrigger = 512
	}
	if c.GCBytesTrigger <= 0 {
		c.GCBytesTrigger = c.HeapCapacity / 8
	}
	if c.Params == (policy.Params{}) {
		c.Params = policy.InitialParams()
	}
	return c
}

// Side is a placement side.
type Side uint8

// Placement sides.
const (
	OnClient Side = iota
	OnSurrogate
)

// PartitionRecord describes one (re)partitioning during replay.
type PartitionRecord struct {
	// EventIndex is the last event the partition read: the one at which
	// it ran.
	EventIndex int

	// At is the simulated time of the decision.
	At time.Duration

	// Decision is the policy's choice.
	Decision policy.Decision

	// OffloadedClasses lists the classes moved to the surrogate.
	OffloadedClasses []string

	// TransferBytes/TransferTime are the one-time offload costs charged.
	TransferBytes int64
	TransferTime  time.Duration

	// HeapFreedFraction is TransferBytes over the heap capacity.
	HeapFreedFraction float64

	// PredictedBandwidthBps is the interaction bandwidth the execution
	// history predicts for this cut.
	PredictedBandwidthBps float64

	// Rejected records a trigger that fired but found no beneficial
	// partitioning.
	Rejected bool

	// RejectedReason carries the policy's explanation when Rejected.
	RejectedReason string

	// Forced marks a partitioning run under hard memory pressure
	// (allocation failure) rather than the periodic trigger.
	Forced bool
}

// Result summarizes a replay.
type Result struct {
	App string

	// Time is the total simulated execution time of this run: execution,
	// remote communication, offload transfers, and monitoring charges.
	Time time.Duration

	// ExecTime, CommTime, TransferTime, MonitorTime decompose Time.
	ExecTime     time.Duration
	CommTime     time.Duration
	TransferTime time.Duration
	MonitorTime  time.Duration

	// ExecClient and ExecSurrogate split ExecTime by the side that
	// executed (the client idles during surrogate execution — the basis
	// of the energy model).
	ExecClient    time.Duration
	ExecSurrogate time.Duration

	// OOM reports that the run died of memory exhaustion (only possible
	// with DisableOffload or when no beneficial partitioning exists);
	// OOMEvent is the trace position.
	OOM      bool
	OOMEvent int

	// Partitions records every partitioning attempt.
	Partitions []PartitionRecord

	// Offloaded reports whether any partitioning was applied.
	Offloaded bool

	// RemoteInvocations counts invoke events that crossed the cut;
	// RemoteNative counts the subset that were directed to the client
	// because they were native (Figure 8); RemoteAccesses counts data
	// accesses that crossed.
	RemoteInvocations int64
	RemoteNative      int64
	RemoteAccesses    int64

	// LinkBytes is the total payload crossing the link, excluding offload
	// transfers.
	LinkBytes int64

	// GCCycles counts simulated collection cycles.
	GCCycles int64

	// Events counts replayed trace events.
	Events int64
}

// ClientEnergy estimates the client's battery drain for this run under
// the energy model: the CPU is active during client-side execution and
// idles otherwise; the radio is active for communication and transfers
// and stays associated from the first offload onward (approximated as the
// whole run when anything offloaded, zero otherwise).
func (r *Result) ClientEnergy(m netmodel.EnergyModel) netmodel.EnergyBreakdown {
	waiting := r.Time - r.ExecClient
	if waiting < 0 {
		waiting = 0
	}
	airtime := r.CommTime + r.TransferTime
	var radioUp time.Duration
	if r.Offloaded {
		radioUp = r.Time
	}
	return m.Energy(r.ExecClient, waiting, airtime, radioUp)
}

// Overhead returns the remote-execution overhead of this run relative to
// the given original (client-only) time: offloading time plus communication
// time, as a fraction (paper §5.1).
func (r *Result) Overhead(original time.Duration) float64 {
	if original <= 0 {
		return 0
	}
	return float64(r.Time-original) / float64(original)
}

// objInfo tracks a live object during replay.
type objInfo struct {
	class trace.ClassID
	size  int64
	side  Side
	array bool
}

// emulation is the per-run state.
type emulation struct {
	cfg Config
	tr  *trace.Trace
	mon *monitor.Monitor
	res *Result

	// fed counts the events handed to mon: a partition, its one reader,
	// feeds the window since the last one before it reads.
	fed int

	// side[class] is the current class placement.
	side []Side

	// objects tracks live objects for heap simulation and array
	// granularity.
	objects map[trace.ObjectID]*objInfo

	// arrayAffinity[obj][class] counts interactions between the array
	// object and the class, for object-granularity placement.
	arrayAffinity map[trace.ObjectID]map[trace.ClassID]int64

	clientLive   int64
	garbage      int64
	objsSinceGC  int64
	bytesSinceGC int64

	trigger  policy.MemoryTrigger
	fired    bool // memory trigger raised, partition pending
	periodic policy.PeriodicTrigger

	classByName map[string]int

	// mc and memScratch amortize the dense partitioning input (the N×N
	// weight matrix dominates repartition allocations) and the greedy
	// heuristic's memory vector across repartitions of this run.
	mc         mincut.Scratch
	memScratch []int64

	inForced   bool
	partitions int
	now        time.Duration
}

// Run replays the trace under the configuration.
func Run(tr *trace.Trace, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Link.Validate(); err != nil {
		return nil, err
	}
	e := &emulation{
		cfg:           cfg,
		tr:            tr,
		mon:           monitor.New(nil),
		res:           &Result{App: tr.App},
		side:          make([]Side, len(tr.Classes)),
		objects:       make(map[trace.ObjectID]*objInfo),
		arrayAffinity: make(map[trace.ObjectID]map[trace.ClassID]int64),
		trigger: policy.MemoryTrigger{
			FreeFraction: cfg.Params.TriggerFreeFraction,
			Tolerance:    cfg.Params.Tolerance,
		},
		periodic:    policy.PeriodicTrigger{Every: cfg.ReevalEvery},
		classByName: make(map[string]int, len(tr.Classes)),
	}
	for i := range tr.Classes {
		e.classByName[tr.Classes[i].Name] = i
	}
	if err := e.trigger.Validate(); err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	e.res.Time = e.res.ExecTime + e.res.CommTime + e.res.TransferTime + e.res.MonitorTime
	return e.res, nil
}

// run replays the events, checking each against the trace's rules before
// it consumes it: the liveness rules against objects, which holds exactly
// the live set. A run that stops early, out of memory, checks the rest of
// the trace before it returns, so a replay accepts what Validate accepts.
func (e *emulation) run() error {
	for i := range e.tr.Events {
		if err := e.tr.CheckEvent(i); err != nil {
			return err
		}
		ev := &e.tr.Events[i]
		if ev.Kind == trace.KindGC {
			// Recorded resource events are superseded by the replayed
			// heap simulation.
			continue
		}
		e.res.Events++
		if e.cfg.MonitorCostPerEvent > 0 {
			e.res.MonitorTime += e.cfg.MonitorCostPerEvent
			e.now += e.cfg.MonitorCostPerEvent
		}
		switch ev.Kind {
		case trace.KindInvoke:
			e.invoke(ev)
		case trace.KindAccess:
			e.access(ev)
		case trace.KindCreate:
			_, live := e.objects[ev.Obj]
			if err := e.tr.CheckLive(i, 0, live); err != nil {
				return err
			}
			if !e.create(ev, i) {
				return e.tr.Validate() // out of memory; run aborted
			}
		case trace.KindDelete:
			oi, live := e.objects[ev.Obj]
			var created trace.ClassID
			if live {
				created = oi.class
			}
			if err := e.tr.CheckLive(i, created, live); err != nil {
				return err
			}
			e.delete(ev.Obj, oi)
		}
		// A raised memory trigger partitions at the next event boundary.
		if e.fired && !e.cfg.DisableOffload && e.cfg.Mode == MemoryMode {
			e.fired = false
			e.partition(i, false)
		}
		if e.cfg.Mode == CPUMode && !e.cfg.DisableOffload && e.periodic.Tick(e.now) {
			e.partition(i, false)
		}
	}
	return nil
}

// execSide returns where an invoke event executes, honoring native routing
// and the stateless enhancement.
func (e *emulation) execSide(ev *trace.Event, callerSide Side) Side {
	if ev.Native {
		if ev.Stateless && e.cfg.StatelessNativeLocal {
			// Stateless natives run on the device where they are invoked.
			return callerSide
		}
		return OnClient
	}
	return e.objectSide(ev.Obj, ev.Callee)
}

// objectSide returns the placement of an interaction target: the object's
// own side when array granularity tracks it, its class's side otherwise.
func (e *emulation) objectSide(obj trace.ObjectID, class trace.ClassID) Side {
	if e.cfg.ArrayGranularity && obj != trace.NoObject {
		if oi, ok := e.objects[obj]; ok && oi.array {
			return oi.side
		}
	}
	return e.side[class]
}

// execCost scales a recorded self-time to the emulated device executing
// it: trace times are at tracing-PC speed; the client runs ClientSlowdown×
// slower, and the surrogate runs SurrogateSpeedup× faster than the client.
func (e *emulation) execCost(d time.Duration, s Side) time.Duration {
	scaled := float64(d) * e.cfg.ClientSlowdown
	if s == OnSurrogate {
		scaled /= e.cfg.SurrogateSpeedup
	}
	return time.Duration(scaled)
}

func (e *emulation) invoke(ev *trace.Event) {
	callerSide := e.side[ev.Caller]
	execAt := e.execSide(ev, callerSide)
	cost := e.execCost(ev.SelfTime, execAt)
	e.res.ExecTime += cost
	if execAt == OnClient {
		e.res.ExecClient += cost
	} else {
		e.res.ExecSurrogate += cost
	}
	e.now += cost
	e.noteAffinity(ev)
	if callerSide != execAt {
		cost := e.cfg.Link.RPC(ev.Bytes, 0)
		e.res.CommTime += cost
		e.now += cost
		e.res.LinkBytes += ev.Bytes
		e.res.RemoteInvocations++
		if ev.Native {
			e.res.RemoteNative++
		}
	}
}

func (e *emulation) access(ev *trace.Event) {
	callerSide := e.side[ev.Caller]
	targetSide := e.objectSide(ev.Obj, ev.Callee)
	e.noteAffinity(ev)
	if callerSide != targetSide {
		cost := e.cfg.Link.RPC(ev.Bytes, 0)
		e.res.CommTime += cost
		e.now += cost
		e.res.LinkBytes += ev.Bytes
		e.res.RemoteAccesses++
	}
}

// noteAffinity accumulates per-object interaction counts for array-class
// objects (used by the object-granularity enhancement).
func (e *emulation) noteAffinity(ev *trace.Event) {
	if !e.cfg.ArrayGranularity || ev.Obj == trace.NoObject {
		return
	}
	oi, ok := e.objects[ev.Obj]
	if !ok || !oi.array {
		return
	}
	m, ok := e.arrayAffinity[ev.Obj]
	if !ok {
		m = make(map[trace.ClassID]int64, 4)
		e.arrayAffinity[ev.Obj] = m
	}
	m[ev.Caller]++
}

func (e *emulation) create(ev *trace.Event, idx int) bool {
	cls := e.tr.Class(ev.Callee)
	side := e.side[ev.Callee]
	oi := &objInfo{class: ev.Callee, size: ev.Bytes, side: side, array: cls.Array}
	e.objects[ev.Obj] = oi
	if side == OnSurrogate {
		return true // surrogate resources are assumed plentiful (paper §2)
	}
	// Client allocation: may require collection, may hit the wall.
	if e.clientLive+e.garbage+ev.Bytes > e.cfg.HeapCapacity {
		e.collect()
	}
	if e.clientLive+ev.Bytes > e.cfg.HeapCapacity {
		// Hard memory pressure: the platform partitions right now (the
		// prototype detects the lack of available memory and offloads;
		// paper §5.1).
		if !e.cfg.DisableOffload && e.cfg.Mode == MemoryMode {
			e.partition(idx, true)
		}
		if e.clientLive+ev.Bytes > e.cfg.HeapCapacity {
			e.res.OOM = true
			e.res.OOMEvent = idx
			return false
		}
	}
	e.clientLive += ev.Bytes
	e.objsSinceGC++
	e.bytesSinceGC += ev.Bytes
	if e.objsSinceGC >= e.cfg.GCObjectTrigger || e.bytesSinceGC >= e.cfg.GCBytesTrigger {
		e.collect()
	}
	return true
}

// delete frees obj, live as oi.
func (e *emulation) delete(obj trace.ObjectID, oi *objInfo) {
	delete(e.objects, obj)
	delete(e.arrayAffinity, obj)
	if oi.side == OnClient {
		e.clientLive -= oi.size
		e.garbage += oi.size
	}
}

// debugGC, when set by tests, observes every simulated collection.
var debugGC func(free, capacity int64, freed bool)

// collect runs one simulated GC cycle and feeds the memory trigger.
func (e *emulation) collect() {
	freed := e.garbage > 0
	e.garbage = 0
	e.objsSinceGC = 0
	e.bytesSinceGC = 0
	e.res.GCCycles++
	free := e.cfg.HeapCapacity - e.clientLive
	if debugGC != nil {
		debugGC(free, e.cfg.HeapCapacity, freed)
	}
	if e.cfg.Mode == MemoryMode && !e.cfg.DisableOffload && e.partitions < e.cfg.MaxPartitions {
		if e.trigger.Report(free, e.cfg.HeapCapacity, freed) {
			e.fired = true
		}
	}
}

// partition runs the modified MINCUT heuristic and the configured policy,
// applying the decision if one is beneficial. forced marks hard memory
// pressure (allocation failure), which bypasses the trigger.
func (e *emulation) partition(idx int, forced bool) {
	e.inForced = forced
	// Hard memory pressure overrides the partition budget: failing the
	// application to honor a budget would be perverse.
	if e.partitions >= e.cfg.MaxPartitions && !forced {
		return
	}
	e.mon.OnEvents(e.tr, e.tr.Events[e.fed:idx+1])
	e.fed = idx + 1
	g := e.mon.Graph()
	in := e.mc.FromGraph(g, graph.BytesWeight)
	var cands []mincut.Candidate
	var err error
	switch e.cfg.Heuristic {
	case HeuristicGreedyDensity:
		if cap(e.memScratch) < g.Len() {
			e.memScratch = make([]int64, g.Len())
		}
		mem := e.memScratch[:g.Len()]
		for _, n := range g.Nodes() {
			mem[n.ID] = n.Memory
		}
		cands, err = e.mc.GreedyDensityCandidates(in, mem)
	default:
		cands, err = e.mc.Candidates(in)
	}
	if err != nil {
		e.res.Partitions = append(e.res.Partitions, PartitionRecord{
			EventIndex: idx, At: e.now, Rejected: true, RejectedReason: err.Error(),
		})
		return
	}

	// choose is the policy call the decision came from; the KL pass puts
	// its refined placement through it again.
	var choose func(cands []mincut.Candidate) (policy.Decision, error)
	var dec policy.Decision
	switch e.cfg.Mode {
	case MemoryMode:
		mp := policy.MemoryPolicy{MinFreeFraction: e.cfg.Params.MinFreeFraction}
		choose = func(cands []mincut.Candidate) (policy.Decision, error) {
			return mp.Choose(g, e.cfg.HeapCapacity, cands)
		}
		dec, err = choose(cands)
		if err != nil && forced {
			// Hard pressure: accept any partitioning that frees memory.
			mp.MinFreeFraction = 0
			dec, err = choose(cands)
		}
	case CPUMode:
		minCPU := e.cfg.MinOffloadCPUFraction
		if minCPU <= 0 {
			minCPU = 0.2
		}
		cp := policy.CPUPolicy{
			Speedup:              e.cfg.SurrogateSpeedup,
			ClientSlowdown:       e.cfg.ClientSlowdown,
			Link:                 e.cfg.Link,
			StatelessNativeLocal: e.cfg.StatelessNativeLocal,
			ArrayGranularity:     e.cfg.ArrayGranularity,
			MinCPUFraction:       minCPU,
		}
		pick := cp.Choose
		if e.cfg.ForceCPUOffload {
			pick = cp.ChooseBest
		}
		choose = func(cands []mincut.Candidate) (policy.Decision, error) { return pick(g, cands) }
		dec, err = choose(cands)
	}
	if err != nil {
		e.res.Partitions = append(e.res.Partitions, PartitionRecord{
			EventIndex: idx, At: e.now, Decision: dec,
			Rejected: true, RejectedReason: err.Error(),
		})
		return
	}
	if e.cfg.KLRefine {
		// The refined placement replaces the decision only if the policy
		// accepts it, and then as the policy evaluates it. A KL swap
		// trades one class for another, so the offloaded count holds.
		if refined, cutW, rerr := e.mc.RefineKL(in, dec.InClient); rerr == nil {
			kl := mincut.Candidate{InClient: refined, CutWeight: cutW, Offloaded: dec.OffloadClasses}
			if d, kerr := choose([]mincut.Candidate{kl}); kerr == nil {
				dec = d
			}
		}
	}
	e.apply(g, dec, idx)
}

// apply installs a decision: class placements move, live objects of
// offloaded classes transfer, array objects re-place by affinity.
func (e *emulation) apply(g *graph.Graph, dec policy.Decision, idx int) {
	rec := PartitionRecord{EventIndex: idx, At: e.now, Decision: dec, Forced: e.inForced}

	newSide := make([]Side, len(e.side))
	for _, n := range g.Nodes() {
		cid, ok := e.classByName[n.Name]
		if !ok {
			continue
		}
		if dec.InClient[n.ID] {
			newSide[cid] = OnClient
		} else {
			newSide[cid] = OnSurrogate
			rec.OffloadedClasses = append(rec.OffloadedClasses, n.Name)
		}
	}
	// Classes never seen by the graph keep their old side.
	for cid := range e.side {
		if _, seen := g.Lookup(e.tr.Classes[cid].Name); !seen {
			newSide[cid] = e.side[cid]
		}
	}
	e.side = newSide

	// Move live objects: class placement first, then array-object
	// affinity overrides.
	var moved int64
	for obj, oi := range e.objects {
		target := e.side[oi.class]
		if e.cfg.ArrayGranularity && oi.array {
			target = e.affinitySide(obj, oi)
		}
		if target == oi.side {
			continue
		}
		if oi.side == OnClient {
			e.clientLive -= oi.size
			moved += oi.size
		} else {
			e.clientLive += oi.size
			moved += oi.size
		}
		oi.side = target
	}
	if moved > 0 {
		rec.TransferBytes = moved
		rec.TransferTime = e.cfg.Link.Transfer(moved, 1400)
		e.res.TransferTime += rec.TransferTime
		e.now += rec.TransferTime
	}
	rec.HeapFreedFraction = float64(rec.TransferBytes) / float64(e.cfg.HeapCapacity)
	if e.now > 0 {
		rec.PredictedBandwidthBps = netmodel.Bandwidth(dec.CutBytes, e.now)
	}
	e.res.Partitions = append(e.res.Partitions, rec)
	e.res.Offloaded = true
	e.partitions++
	e.trigger.Reset()
}

// affinitySide places one array object on the side it historically
// interacts with most.
func (e *emulation) affinitySide(obj trace.ObjectID, oi *objInfo) Side {
	aff, ok := e.arrayAffinity[obj]
	if !ok || len(aff) == 0 {
		return e.side[oi.class]
	}
	var client, surrogate int64
	for cls, n := range aff {
		if e.side[cls] == OnClient {
			client += n
		} else {
			surrogate += n
		}
	}
	if surrogate > client {
		return OnSurrogate
	}
	return OnClient
}

// RunOriginal replays with offloading disabled, returning the client-only
// baseline. An out-of-memory abort is reported as an error alongside the
// partial result (matching the paper's JavaNote failure on an unmodified
// 6 MB VM).
func RunOriginal(tr *trace.Trace, cfg Config) (*Result, error) {
	cfg.DisableOffload = true
	res, err := Run(tr, cfg)
	if err != nil {
		return nil, err
	}
	if res.OOM {
		return res, fmt.Errorf("emulator: %s: %w at event %d", tr.App, ErrOutOfMemory, res.OOMEvent)
	}
	return res, nil
}

// ErrOutOfMemory marks a replay that exhausted the emulated client heap.
var ErrOutOfMemory = errors.New("out of memory")
