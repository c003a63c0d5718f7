package aide

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// ErrNoSurrogate is returned when an operation requires an attached
// surrogate and none is connected.
var ErrNoSurrogate = errors.New("aide: no surrogate attached")

// ErrNotBeneficial is returned when the partitioning policy finds no
// beneficial offloading; the application stays local.
var ErrNotBeneficial = policy.ErrNotBeneficial

// ErrPinnedLocal is returned by Offload while the client is in the
// post-disconnection cooldown: after losing a surrogate the application
// runs locally for a few GC cycles before offloading may resume.
var ErrPinnedLocal = errors.New("aide: offloading pinned local after disconnection")

// OffloadReport summarizes one offloading operation.
type OffloadReport struct {
	// Classes lists the classes whose objects moved to the surrogate.
	Classes []string

	// Objects and Bytes count what moved.
	Objects int
	Bytes   int64

	// CutBytes is the historical information transfer across the chosen
	// cut; FreedFraction relates Bytes to the heap capacity.
	CutBytes      int64
	FreedFraction float64

	// At is the client's simulated clock when the offload completed.
	At time.Duration
}

// Client is the platform on the resource-constrained device: a VM plus
// AIDE's monitoring, partitioning, and remote-invocation modules.
type Client struct {
	opts options

	reg *Registry
	vm  *vm.VM
	mon *monitor.Monitor

	// pm and tracer instrument the partitioning pipeline; both are
	// nil-safe no-ops without WithTelemetry.
	pm     platformMetrics
	tracer *telemetry.Tracer

	// slots owns the surrogate connections, the class placement and the
	// handoff rounds; every change to them is one of its transitions.
	slots *slotTable

	// mu guards the policy state below. It nests inside the table's discMu
	// (a retire bumps disconnects under it) and is never held across a
	// call into the table.
	mu          sync.Mutex
	trigger     policy.MemoryTrigger
	disc        policy.DisconnectTrigger
	adaptive    bool
	reports     []OffloadReport
	rejected    int
	gcCount     int
	rebalances  int
	disconnects int

	// handoffsDone counts completed live handoffs; the speculation outcome
	// counters are described in speculate.go.
	handoffsDone                              int
	specLocalWins, specRemoteWins, specMisses int64
}

// NewClient builds a client platform over the shared class registry.
func NewClient(reg *Registry, opts ...Option) *Client {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	c := &Client{opts: o, reg: reg}
	c.pm = newPlatformMetrics(o.telemetry)
	c.tracer = o.tracer
	c.vm = vm.New(reg, vm.Config{
		Role:                vm.RoleClient,
		HeapCapacity:        o.heap,
		CPUSpeed:            o.cpuSpeed,
		MonitorCostPerEvent: o.monCost,
		Telemetry:           o.telemetry,
		Tracer:              o.tracer,
	})
	c.vm.SetStatelessNativeLocal(o.stateless)
	if o.monitor {
		c.mon = monitor.New(monitor.RegistryMeta(reg))
		c.vm.SetHooks(c.mon)
	}
	c.trigger = policy.MemoryTrigger{
		FreeFraction: o.params.TriggerFreeFraction,
		Tolerance:    o.params.Tolerance,
	}
	c.disc = policy.DisconnectTrigger{CooldownCycles: o.disconnectCool}
	c.slots = newSlotTable(o.logf)
	c.vm.SetFailoverHandler(c.failoverPeer)
	c.vm.SetDrainHandler(c.waitHandoff)
	return c
}

// Thread returns an execution context for running application code.
func (c *Client) Thread() *Thread { return c.vm.NewThread() }

// NewPipeline starts a promise pipeline: a chain of dependent remote
// invocations that ships as one wire frame when every receiver lives on
// the same surrogate.
//
//	p := c.NewPipeline()
//	a := p.Invoke(obj, "f")
//	b := p.Invoke(a, "g", a) // receiver and argument from a's promise
//	res, err := p.Run(ctx)
//
// Against an old surrogate without multi-invoke support, or after a
// mid-frame disconnection, the pipeline transparently degrades to
// sequential calls.
func (c *Client) NewPipeline() *Pipeline { return c.vm.NewPipeline() }

// VM exposes the underlying client VM (roots, heap statistics, clock).
func (c *Client) VM() *vm.VM { return c.vm }

// Clock returns the client's simulated clock.
func (c *Client) Clock() time.Duration { return c.vm.Clock() }

// Heap returns client heap statistics.
func (c *Client) Heap() vm.HeapStats { return c.vm.Heap() }

// Graph returns a snapshot of the monitored execution graph.
func (c *Client) Graph() (*graph.Graph, error) {
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled")
	}
	return c.mon.Graph(), nil
}

// Attach connects the client to a surrogate over the given transport and
// enables adaptive offloading: memory pressure and low-memory trigger
// events now partition and offload automatically (ad-hoc platform
// creation, paper §2). A client may attach several surrogates; the
// partitioner then spreads offloaded classes across them by available
// memory ("multiple surrogates could be used by the client", §2).
func (c *Client) Attach(t remote.Transport) error {
	return c.AttachContext(context.Background(), t)
}

// AttachContext is Attach bounded by ctx. It runs the session handshake:
// the surrogate's admission control either opens the session or rejects
// it with a typed error — errors.Is(err, ErrAdmissionRejected) when the
// surrogate is at capacity, ErrShed when it is degraded and shedding
// load.
func (c *Client) AttachContext(ctx context.Context, t remote.Transport) error {
	p := c.newPeer(t, nil)
	c.slots.add(p)
	if _, err := p.Attach(ctx); err != nil {
		// Rejected (or the transport died mid-handshake): retire the slot,
		// which has no stubs yet. The VM's peer table never reuses indexes,
		// so every other peer's index stays aligned.
		c.retire(p.VMIndex(), p, "refused the attach", func() int { return 0 })
		return fmt.Errorf("aide: attach: %w", err)
	}
	if c.opts.speculate {
		// Interpose the speculation wrapper between the VM and the wire:
		// while the connection is degraded, invocations race a local clone
		// against the remote call (see speculate.go).
		if err := c.vm.ReplacePeer(p.VMIndex(), newSpecPeer(c, p)); err != nil && c.opts.logf != nil {
			c.opts.logf("aide: install speculation wrapper: %v", err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pm.attaches.Inc()
	if c.tracer.Enabled() {
		c.tracer.Emit(telemetry.Span{Kind: telemetry.SpanReattach, Peer: p.VMIndex()})
	}
	c.disc.Reset() // a fresh surrogate ends any post-disconnect cooldown
	if c.mon != nil && !c.adaptive {
		c.adaptive = true
		c.mon.OnGCListener(c.onGC)
		c.vm.SetPressureHandler(c.onPressure)
	}
	return nil
}

// Surrogates returns the number of connected surrogates.
func (c *Client) Surrogates() int {
	_, n := c.slots.live()
	return n
}

// Disconnects reports how many surrogate connections the client has lost
// involuntarily (transport failure or timeout escalation).
func (c *Client) Disconnects() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disconnects
}

// PinnedLocal reports whether the post-disconnection cooldown currently
// suppresses offloading.
func (c *Client) PinnedLocal() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.disc.Active()
}

// failoverPeer is the VM's disconnect-failover hook: a remote call
// through used failed because that peer vanished. The answer is always
// retry: either this call re-homed used's objects locally, or another
// observer did and has finished by the time disconnect returns, or a live
// handoff replaced used before it died and the slot holds a healthy peer
// that must not be touched — the retry lands on it.
func (c *Client) failoverPeer(idx int, used vm.Peer) bool {
	c.disconnect(idx, wirePeer(used))
	return true
}

// wirePeer unwraps the connection behind a VM peer-table entry.
func wirePeer(p vm.Peer) *remote.Peer {
	switch p := p.(type) {
	case *remote.Peer:
		return p
	case *specPeer:
		return p.inner
	}
	return nil
}

// disconnect tears down surrogate connection p, if slot idx still holds
// it, and fails its objects over to local execution. Idempotent: later
// callers, and reports about a peer that already left the slot, return
// once the winner's reclaim has completed.
func (c *Client) disconnect(idx int, p *remote.Peer) {
	c.retire(idx, p, "disconnected", func() int {
		c.mu.Lock()
		c.disconnects++
		c.disc.Fire()
		c.mu.Unlock()
		c.pm.disconnects.Inc()
		return c.vm.ReclaimStubs(idx)
	})
}

// retire is the one way a connection leaves its slot involuntarily: claim
// the slot while it still holds p, detach the VM's side (so the export-pin
// check inside the reclaim sees it empty), re-home every stub that pointed
// at the surrogate, and close p in the background. It reports the claim.
func (c *Client) retire(idx int, p *remote.Peer, what string, reclaim func() int) bool {
	ok, _ := c.slots.exchange(idx, p, nil, what, func() error {
		c.vm.DetachPeer(idx)
		n := reclaim()
		if c.opts.logf != nil {
			c.opts.logf("aide: surrogate %d %s; re-homed %d stubs", idx, what, n)
		}
		return nil
	})
	return ok
}

// AttachTCP dials a surrogate's listener and attaches to it.
func (c *Client) AttachTCP(addr string) error {
	return c.AttachTCPContext(context.Background(), addr)
}

// AttachTCPContext is AttachTCP with a cancellable dial: a client
// reattaching after a disconnection can abandon a slow candidate.
func (c *Client) AttachTCPContext(ctx context.Context, addr string) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("aide: dial surrogate: %w", err)
	}
	return c.AttachContext(ctx, remote.NewConnTransport(conn))
}

// Detach tears the platform down: every surrogate connection closes and
// adaptive offloading stops. Objects already offloaded become unreachable;
// detach only when the application is done with them.
func (c *Client) Detach() error {
	c.mu.Lock()
	c.adaptive = false
	c.mu.Unlock()
	c.vm.SetPressureHandler(nil)
	return c.slots.closeAll()
}

// Close releases the client's resources.
func (c *Client) Close() error { return c.Detach() }

// Ping round-trips a null message to every attached surrogate.
func (c *Client) Ping() error {
	return c.PingContext(context.Background())
}

// PingContext is Ping bounded by ctx: probes of the remaining
// surrogates abort when ctx is cancelled or its deadline expires.
func (c *Client) PingContext(ctx context.Context) error {
	peers, live := c.slots.live()
	if live == 0 {
		return ErrNoSurrogate
	}
	for _, p := range peers {
		if p == nil {
			continue
		}
		if err := p.Probe(ctx); err != nil {
			return err
		}
	}
	return nil
}

// onGC feeds collection reports into the memory trigger and drives
// periodic re-evaluation.
func (c *Client) onGC(free, capacity int64, freed bool) {
	c.mu.Lock()
	pinned := c.disc.Active()
	c.disc.Report() // each GC cycle ages the post-disconnect cooldown
	fire := c.adaptive && !pinned && c.trigger.Report(free, capacity, freed)
	c.gcCount++
	rebalance := c.adaptive && !pinned && !fire && c.opts.rebalanceGC > 0 &&
		c.gcCount%c.opts.rebalanceGC == 0
	c.mu.Unlock()
	rebalance = rebalance && len(c.slots.placed()) > 0
	if fire {
		// Best effort: a failed or non-beneficial partitioning leaves the
		// application running locally.
		if _, err := c.Offload(); err != nil {
			c.mu.Lock()
			c.rejected++
			c.mu.Unlock()
		}
		return
	}
	if rebalance {
		if rep, err := c.Rebalance(); err == nil && rep.Moved() {
			c.mu.Lock()
			c.rebalances++
			c.mu.Unlock()
		}
	}
}

// Rebalances reports how many periodic re-evaluations changed the
// placement.
func (c *Client) Rebalances() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebalances
}

// partition runs the modified MINCUT heuristic over a graph snapshot,
// timing the run into the partition-runtime histogram when telemetry is
// attached. A fresh Scratch per call keeps concurrent pipeline runs (GC
// trigger vs. pressure handler) independent.
func (c *Client) partition(g *graph.Graph) ([]mincut.Candidate, error) {
	c.pm.partitions.Inc()
	sc := &mincut.Scratch{}
	if c.pm.partitionRuntime != nil {
		sc.Clock = time.Now
		sc.Runtime = c.pm.partitionRuntime
	}
	return sc.Candidates(sc.FromGraph(g, graph.BytesWeight))
}

// traceStart reports whether the tracer is on and, only then, reads the
// clock for the span about to be timed.
func (c *Client) traceStart() (traced bool, start time.Time) {
	if traced = c.tracer.Enabled(); traced {
		start = time.Now()
	}
	return traced, start
}

// memoryPolicy builds the configured memory policy with decision-outcome
// counters attached.
func (c *Client) memoryPolicy() policy.MemoryPolicy {
	return policy.MemoryPolicy{
		MinFreeFraction: c.opts.params.MinFreeFraction,
		Chosen:          c.pm.chosen,
		Rejected:        c.pm.rejected,
	}
}

// onPressure handles a failed post-GC allocation: offload or die.
func (c *Client) onPressure(needed int64) bool {
	_, err := c.Offload()
	return err == nil
}

// Offload runs the partitioning pipeline once: snapshot the execution
// graph, generate candidate partitionings with the modified MINCUT
// heuristic, apply the memory policy, and migrate the chosen classes'
// objects. With several surrogates attached, classes are spread across
// them greedily by available memory (paper §2: "If the necessary resources
// for a client are not available at the closest surrogate, multiple
// surrogates could be used").
func (c *Client) Offload() (*OffloadReport, error) {
	return c.OffloadContext(context.Background())
}

// OffloadContext is Offload bounded by ctx: the placement probes and
// migration calls abort when ctx is cancelled or its deadline expires.
func (c *Client) OffloadContext(ctx context.Context) (*OffloadReport, error) {
	c.mu.Lock()
	pinned := c.disc.Active()
	c.mu.Unlock()
	if pinned {
		return nil, ErrPinnedLocal
	}
	if _, live := c.slots.live(); live == 0 {
		return nil, ErrNoSurrogate
	}
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled; nothing to partition")
	}

	traced, tStart := c.traceStart()
	chosen, cutBytes, err := c.decide()
	if err != nil {
		return nil, err
	}
	rep := OffloadReport{CutBytes: cutBytes}
	rep.Classes, rep.Objects, rep.Bytes, err = c.migrate(ctx, chosen)
	if err != nil {
		return nil, err
	}
	rep.FreedFraction = float64(rep.Bytes) / float64(c.opts.heap)
	rep.At = c.vm.Clock()

	c.mu.Lock()
	c.trigger.Reset()
	c.reports = append(c.reports, rep)
	c.mu.Unlock()
	c.pm.offloads.Inc()
	c.pm.offloadedBytes.Add(rep.Bytes)
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind:  telemetry.SpanRepartition,
			Note:  "offload",
			N:     int64(rep.Objects),
			Bytes: rep.Bytes,
			Start: tStart,
			Dur:   time.Since(tStart),
		})
	}
	return &rep, nil
}

// classInfo pairs a class with its live memory for placement decisions.
type classInfo struct {
	name string
	size int64
}

// decide is the partitioning decision Offload and Rebalance share:
// snapshot the execution graph, generate candidates with the modified
// MINCUT heuristic, apply the memory policy, and return the classes the
// chosen cut places on the surrogate side, biggest first, with the cut's
// historical transfer. Classes already offloaded are weighed by the
// recorded graph, which still carries the totals their surrogate holds.
func (c *Client) decide() (chosen []classInfo, cutBytes int64, err error) {
	g := c.mon.Graph()
	cands, err := c.partition(g)
	if err != nil {
		return nil, 0, fmt.Errorf("aide: partition: %w", err)
	}
	mp := c.memoryPolicy()
	dec, err := mp.Choose(g, c.opts.heap, cands)
	if err != nil {
		// Hard fallback: when the heap is critically full, free whatever
		// we can rather than fail the application.
		heap := c.vm.Heap()
		if float64(heap.Free)/float64(heap.Capacity) < 0.05 {
			mp.MinFreeFraction = 0
			dec, err = mp.Choose(g, c.opts.heap, cands)
		}
		if err != nil {
			return nil, 0, err
		}
	}
	chosen = make([]classInfo, 0, dec.OffloadClasses)
	for _, n := range g.Nodes() {
		if !dec.InClient[n.ID] {
			chosen = append(chosen, classInfo{name: n.Name, size: n.Memory})
		}
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].size != chosen[j].size {
			return chosen[i].size > chosen[j].size
		}
		return chosen[i].name < chosen[j].name
	})
	return chosen, dec.CutBytes, nil
}

// migrate is the outbound migration Offload and Rebalance share: spread
// the classes across the live surrogates, move each group, and record its
// placement as it lands, so what moved before a later surrogate fails is
// still on the books (and can be recalled). It returns what moved, sorted.
func (c *Client) migrate(ctx context.Context, chosen []classInfo) (moved []string, objects int, bytes int64, err error) {
	peers, _ := c.slots.live()
	placement, err := c.placeAcross(ctx, peers, chosen)
	if err != nil {
		return nil, 0, 0, err
	}
	for idx := range peers { // slot order, so a failure leaves a defined prefix moved
		classes := placement[idx]
		if len(classes) == 0 {
			continue
		}
		n, b, oerr := c.move(ctx, idx, classes, (*remote.Peer).OffloadContext)
		if oerr != nil {
			err = fmt.Errorf("aide: offload to surrogate %d: %w", idx, oerr)
			break
		}
		c.slots.place(classes, idx)
		moved = append(moved, classes...)
		objects += n
		bytes += b
	}
	sort.Strings(moved)
	if len(moved) > 0 {
		c.vm.Collect() // reclaim the space the migrated objects occupied
		// The stubs it freed release their objects' pins now: the
		// application may not call a surrogate again soon.
		live, _ := c.slots.live()
		for _, p := range live {
			if p != nil {
				p.FlushReleases()
			}
		}
	}
	return moved, objects, bytes, err
}

// move runs one migration (dir is remote.Peer's OffloadContext or
// RecallContext) against slot idx and follows the slot through a live
// handoff, as the VM's drain and failover hooks do for application calls.
// What a draining or just-retired home failed never ran there — its gate
// bounces every work request once the drain begins — so re-sending it to
// the home the handoff installed is exactly-once safe.
func (c *Client) move(ctx context.Context, idx int, classes []string,
	dir func(*remote.Peer, context.Context, []string) (int, int64, error)) (n int, b int64, err error) {
	for redirects := 0; redirects <= 3; redirects++ { // as many as the VM follows for a call
		p := c.slots.at(idx)
		if p == nil {
			return 0, 0, ErrNoSurrogate
		}
		if n, b, err = dir(p, ctx, classes); err == nil {
			break
		}
		if errors.Is(err, remote.ErrDrained) && c.waitHandoff(idx, p) {
			continue
		}
		if next := c.slots.at(idx); !errors.Is(err, remote.ErrClosed) || next == nil || next == p {
			break // a real failure, or the connection was lost rather than handed off
		}
	}
	return n, b, err
}

// placeAcross assigns classes (largest first) to surrogates, greedily
// filling the one with the most remaining free memory. With a single
// surrogate everything goes to it without probing.
func (c *Client) placeAcross(ctx context.Context, peers []*remote.Peer, chosen []classInfo) (map[int][]string, error) {
	live := make([]int, 0, len(peers))
	for i, p := range peers {
		if p != nil {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return nil, ErrNoSurrogate
	}
	placement := make(map[int][]string, len(live))
	if len(live) == 1 {
		for _, ci := range chosen {
			placement[live[0]] = append(placement[live[0]], ci.name)
		}
		return placement, nil
	}
	free := make(map[int]int64, len(live))
	for _, i := range live {
		info, err := peers[i].InfoContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("aide: probe surrogate %d: %w", i, err)
		}
		free[i] = info.FreeBytes
	}
	for _, ci := range chosen {
		best := live[0]
		for _, i := range live {
			if free[i] > free[best] {
				best = i
			}
		}
		placement[best] = append(placement[best], ci.name)
		free[best] -= ci.size
	}
	return placement, nil
}

// OffloadedClasses returns the classes currently placed on the surrogate,
// sorted.
func (c *Client) OffloadedClasses() []string {
	placed := c.slots.placed()
	out := make([]string, 0, len(placed))
	for cls := range placed {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

// Offloads returns the reports of every offload performed so far and the
// number of rejected (non-beneficial) attempts.
func (c *Client) Offloads() ([]OffloadReport, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]OffloadReport(nil), c.reports...), c.rejected
}

// Recall migrates the surrogate's live objects of the named classes back
// to the client: the reverse of Offload (the paper's §8 "global placement"
// direction). References held on either side stay valid.
func (c *Client) Recall(classes []string) (objects int, bytes int64, err error) {
	return c.RecallContext(context.Background(), classes)
}

// RecallContext is Recall bounded by ctx: the per-surrogate migration
// calls abort when ctx is cancelled or its deadline expires.
func (c *Client) RecallContext(ctx context.Context, classes []string) (objects int, bytes int64, err error) {
	peers, live := c.slots.live()
	if live == 0 {
		return 0, 0, ErrNoSurrogate
	}
	placed := c.slots.placed()
	byPeer := make(map[int][]string)
	for _, cls := range classes {
		idx := placed[cls] // not tracked: ask the first surrogate (harmless no-op)
		byPeer[idx] = append(byPeer[idx], cls)
	}
	for idx, group := range byPeer {
		if idx >= len(peers) || peers[idx] == nil {
			continue
		}
		n, b, rerr := c.move(ctx, idx, group, (*remote.Peer).RecallContext)
		if rerr != nil {
			return objects, bytes, rerr
		}
		objects += n
		bytes += b
		c.slots.forget(group)
	}
	return objects, bytes, nil
}

// RebalanceReport summarizes one global-placement pass.
type RebalanceReport struct {
	// Offloaded and Recalled list the classes that moved in each
	// direction.
	Offloaded []string
	Recalled  []string

	// BytesOut and BytesIn count payload moved each way.
	BytesOut, BytesIn int64
}

// Moved reports whether the pass changed anything.
func (r *RebalanceReport) Moved() bool { return len(r.Offloaded)+len(r.Recalled) > 0 }

// Rebalance re-evaluates the placement of every class against the current
// execution graph and moves objects in *both* directions to realize it —
// the paper's §8 "global placement strategies ... moving objects from the
// surrogate to the client device". If no partitioning is beneficial any
// more, everything comes home.
func (c *Client) Rebalance() (*RebalanceReport, error) {
	return c.RebalanceContext(context.Background())
}

// RebalanceContext is Rebalance bounded by ctx: both migration
// directions abort when ctx is cancelled or its deadline expires.
func (c *Client) RebalanceContext(ctx context.Context) (*RebalanceReport, error) {
	if _, live := c.slots.live(); live == 0 {
		return nil, ErrNoSurrogate
	}
	if c.mon == nil {
		return nil, errors.New("aide: monitoring disabled; nothing to partition")
	}

	traced, tStart := c.traceStart()
	c.pm.rebalances.Inc()

	// Desired placement from a fresh decision. A policy that finds nothing
	// beneficial leaves it empty: everything comes home.
	desired, _, err := c.decide()
	if err != nil && !errors.Is(err, ErrNotBeneficial) {
		return nil, fmt.Errorf("aide: rebalance: %w", err)
	}
	current := c.slots.placed()
	rep := &RebalanceReport{}
	var outbound []classInfo
	for _, ci := range desired {
		if _, ok := current[ci.name]; ok {
			delete(current, ci.name) // stays where it is
		} else {
			outbound = append(outbound, ci)
		}
	}
	for cls := range current {
		rep.Recalled = append(rep.Recalled, cls)
	}
	sort.Strings(rep.Recalled)

	if _, rep.BytesIn, err = c.RecallContext(ctx, rep.Recalled); err != nil {
		return nil, fmt.Errorf("aide: rebalance recall: %w", err)
	}
	if len(outbound) > 0 {
		rep.Offloaded, _, rep.BytesOut, err = c.migrate(ctx, outbound)
		if err != nil {
			return nil, fmt.Errorf("aide: rebalance: %w", err)
		}
	}
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind:  telemetry.SpanRepartition,
			Note:  "rebalance",
			N:     int64(len(rep.Offloaded) + len(rep.Recalled)),
			Bytes: rep.BytesOut + rep.BytesIn,
			Start: tStart,
			Dur:   time.Since(tStart),
		})
	}
	return rep, nil
}

// SurrogateInfo probes the first attached surrogate's resources and
// round-trip latency.
func (c *Client) SurrogateInfo() (remote.PeerInfo, error) {
	infos, err := c.SurrogateInfos()
	if err != nil {
		return remote.PeerInfo{}, err
	}
	return infos[0], nil
}

// SurrogateInfos probes every attached surrogate.
func (c *Client) SurrogateInfos() ([]remote.PeerInfo, error) {
	return c.SurrogateInfosContext(context.Background())
}

// SurrogateInfosContext is SurrogateInfos bounded by ctx: the resource
// probes abort when ctx is cancelled or its deadline expires.
func (c *Client) SurrogateInfosContext(ctx context.Context) ([]remote.PeerInfo, error) {
	peers, live := c.slots.live()
	if live == 0 {
		return nil, ErrNoSurrogate
	}
	infos := make([]remote.PeerInfo, 0, live)
	for i, p := range peers {
		if p == nil {
			continue
		}
		info, err := p.InfoContext(ctx)
		if err != nil {
			return nil, fmt.Errorf("aide: surrogate %d: %w", i, err)
		}
		infos = append(infos, info)
	}
	return infos, nil
}
