package aide

import (
	"bytes"
	"context"
	"sync"
	"time"

	"aide/internal/remote"
	"aide/internal/snapshot"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// specCloneHeap sizes the shadow clone's heap: generous, because the
// clone holds a surrogate session that was sized to the surrogate's
// budget, not the constrained client's.
const specCloneHeap = 256 << 20

// SpeculationStats reports the outcomes of speculative clone execution.
type SpeculationStats struct {
	// LocalWins counts races the local clone won (the connection was then
	// dropped and the clone's state promoted into the client VM);
	// RemoteWins races the remote call won; Misses speculation attempts
	// that fell back to remote-only execution (non-scalar call shape,
	// unseedable clone, or a clone-side failure).
	LocalWins  int64
	RemoteWins int64
	Misses     int64
}

// SpeculationStats returns the client's speculation outcome counters.
func (c *Client) SpeculationStats() SpeculationStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return SpeculationStats{
		LocalWins:  c.specLocalWins,
		RemoteWins: c.specRemoteWins,
		Misses:     c.specMisses,
	}
}

// specPeer interposes between the client VM and a surrogate connection
// (WithSpeculation). While the connection is healthy every call passes
// straight through. While it is degraded — timing out but not yet
// disconnected — invocations race a local shadow clone of the session
// against the remote call and the first result wins: a local win
// promotes the clone's state into the client VM and abandons the
// session (the remote execution's effects die with it), a remote win
// returns the remote result. Exactly one side's effects survive either
// way, because the clone is private until promoted and the session is
// abandoned wholesale when it loses.
type specPeer struct {
	c     *Client
	inner *remote.Peer

	// mu guards clone: the shadow session VM seeded from the last pulled
	// snapshot, nil when no speculation is in progress. Dropped whenever
	// a passthrough mutates the remote session (the clone is then stale).
	mu    sync.Mutex
	clone *vm.VM
}

func newSpecPeer(c *Client, inner *remote.Peer) *specPeer {
	return &specPeer{c: c, inner: inner}
}

// dropClone discards the shadow clone; the next speculative call re-pulls
// a fresh snapshot.
func (sp *specPeer) dropClone() {
	sp.mu.Lock()
	sp.clone = nil
	sp.mu.Unlock()
}

// ensureClone returns the shadow clone, seeding it from a freshly pulled
// session snapshot when none is live.
func (sp *specPeer) ensureClone(ctx context.Context) (*vm.VM, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	if sp.clone != nil {
		return sp.clone, nil
	}
	img, err := sp.inner.PullSnapshot(ctx)
	if err != nil {
		return nil, err
	}
	im, err := snapshot.Decode(img)
	if err != nil {
		return nil, err
	}
	cl := vm.New(sp.c.reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: specCloneHeap})
	if err := snapshot.Restore(cl, im); err != nil {
		return nil, err
	}
	sp.clone = cl
	return cl, nil
}

// scalarValues reports whether every value is free of object references;
// speculation only races calls whose inputs and output can be compared
// and returned without translating between object namespaces.
func scalarValues(vs []Value) bool {
	for _, v := range vs {
		if v.Kind == vm.KindRef || v.Kind == vm.KindDeferred {
			return false
		}
	}
	return true
}

// sameScalar compares two scalar results for the convergence check.
func sameScalar(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == vm.KindBytes {
		return bytes.Equal(a.Bytes, b.Bytes)
	}
	return a.I == b.I && a.F == b.F && a.B == b.B && a.S == b.S && a.Ref == b.Ref
}

// noteSpec records one race outcome ("local", "remote", "miss") in the
// client counters, the metrics registry, and the tracer.
func (c *Client) noteSpec(outcome string, start time.Time, traced bool, peerIdx int) {
	c.mu.Lock()
	switch outcome {
	case "local":
		c.specLocalWins++
		c.pm.specLocalWins.Inc()
	case "remote":
		c.specRemoteWins++
		c.pm.specRemoteWins.Inc()
	default:
		c.specMisses++
		c.pm.specMisses.Inc()
	}
	c.mu.Unlock()
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind: telemetry.SpanSpeculate, Note: outcome, Peer: peerIdx,
			Start: start, Dur: time.Since(start),
		})
	}
}

// InvokeRemote races the call against the shadow clone while the
// connection is degraded; otherwise it passes through (dropping any
// stale clone, since the passthrough mutates the remote session).
func (sp *specPeer) InvokeRemote(peerObj ObjectID, method string, args []Value) (Value, time.Duration, error) {
	if sp.inner.State() != remote.StateDegraded {
		sp.dropClone()
		return sp.inner.InvokeRemote(peerObj, method, args)
	}
	c := sp.c
	idx := sp.inner.VMIndex()
	traced, tStart := c.traceStart()
	if !scalarValues(args) {
		c.noteSpec("miss", tStart, traced, idx)
		return sp.inner.InvokeRemote(peerObj, method, args)
	}
	clone, err := sp.ensureClone(sp.inner.LifeContext())
	if err != nil {
		c.noteSpec("miss", tStart, traced, idx)
		return sp.inner.InvokeRemote(peerObj, method, args)
	}

	// The race goroutine joins the client's background group only while
	// the slot is still ours.
	if !c.slots.hold(idx, sp.inner) {
		c.noteSpec("miss", tStart, traced, idx)
		return sp.inner.InvokeRemote(peerObj, method, args)
	}

	type remoteResult struct {
		v   Value
		d   time.Duration
		err error
	}
	rch := make(chan remoteResult, 1)
	owned := append([]Value(nil), args...) // the straggler outlives the borrow (vm.Peer)
	go func() {
		defer c.slots.bg.Done()
		v, d, rerr := sp.inner.InvokeRemote(peerObj, method, owned)
		rch <- remoteResult{v, d, rerr}
	}()

	// Local attempt, inline on the calling thread. Snapshot restores keep
	// object IDs, so the peer-namespace target addresses the same object
	// in the clone. A clone-side failure (the call reached a back-stub to
	// the client, heap pressure) is a miss, never a verdict.
	lv, lerr := clone.NewThread().Invoke(peerObj, method, args...)
	if lerr != nil || !scalarValues([]Value{lv}) {
		sp.dropClone() // the failed attempt may have half-mutated the clone
		c.noteSpec("miss", tStart, traced, idx)
		r := <-rch
		return r.v, r.d, r.err
	}

	var r remoteResult
	haveRemote := false
	select {
	case r = <-rch:
		if r.err == nil {
			// The remote finished first with a verdict. Both sides applied
			// the same call; deterministic execution means the clone
			// converged with the session — keep it only when the results
			// agree.
			if !sameScalar(r.v, lv) {
				sp.dropClone()
			}
			c.noteSpec("remote", tStart, traced, idx)
			return r.v, r.d, nil
		}
		// The remote call failed; the local result stands.
		haveRemote = true
	default:
		// The remote call is still in flight; the local result wins and
		// the session is abandoned — the straggler's effects die with it.
	}
	if sp.promote(clone) {
		c.noteSpec("local", tStart, traced, idx)
		return lv, 0, nil
	}
	// The slot was taken from under us (concurrent handoff or disconnect):
	// the clone's effects cannot be promoted, so returning lv would report
	// a success whose side effects never happened. The remote execution is
	// the only one whose effects can survive — await its verdict and
	// surface that instead (its error feeds the normal drain-redirect and
	// failover retries).
	sp.dropClone()
	if !haveRemote {
		r = <-rch
	}
	if r.err == nil {
		c.noteSpec("remote", tStart, traced, idx)
	} else {
		c.noteSpec("miss", tStart, traced, idx)
	}
	return r.v, r.d, r.err
}

// promote makes the clone the authoritative copy: detach the degraded
// connection, upgrade every stub that pointed at the session using the
// clone's state, and close the connection. The remote execution — won
// or still straggling — is discarded with the abandoned session. It
// reports whether it actually claimed the peer slot; false means the
// clone was NOT promoted (a concurrent handoff or disconnect owns the
// slot) and the caller must not present the clone's result as applied.
func (sp *specPeer) promote(clone *vm.VM) bool {
	idx := sp.inner.VMIndex()
	return sp.c.retire(idx, sp.inner, "out-speculated", func() int {
		return sp.c.vm.ReclaimStubsFrom(idx, clone.ExportSnapshot())
	})
}

// The remaining vm.Peer methods delegate to the wire connection. Reads
// leave the clone alone; mutations drop it (the session state moved on).

func (sp *specPeer) GetFieldRemote(peerObj ObjectID, field string) (Value, error) {
	return sp.inner.GetFieldRemote(peerObj, field)
}

func (sp *specPeer) SetFieldRemote(peerObj ObjectID, field string, v Value) error {
	sp.dropClone()
	return sp.inner.SetFieldRemote(peerObj, field, v)
}

func (sp *specPeer) GetStaticRemote(class, field string) (Value, error) {
	return sp.inner.GetStaticRemote(class, field)
}

func (sp *specPeer) SetStaticRemote(class, field string, v Value) error {
	sp.dropClone()
	return sp.inner.SetStaticRemote(class, field, v)
}

// InvokeNativeRemote drops the clone too: a native body is opaque and
// may mutate session state, so the clone must be assumed stale.
func (sp *specPeer) InvokeNativeRemote(class, method string, peerSelf ObjectID, selfIsCallerLocal bool, args []Value) (Value, time.Duration, error) {
	sp.dropClone()
	return sp.inner.InvokeNativeRemote(class, method, peerSelf, selfIsCallerLocal, args)
}

func (sp *specPeer) Release(peerObj ObjectID) {
	sp.inner.Release(peerObj)
}

// InvokePipeline forwards pipelined frames; the batch mutates the
// session, so the clone is dropped.
func (sp *specPeer) InvokePipeline(ctx context.Context, calls []vm.PipelineCall) (vm.PipelineOutcome, error) {
	sp.dropClone()
	return sp.inner.InvokePipeline(ctx, calls)
}

// FetchFieldsRemote forwards lazy-migration field pulls (a read).
func (sp *specPeer) FetchFieldsRemote(peerObj ObjectID, fields []string) ([]string, []Value, int64, error) {
	return sp.inner.FetchFieldsRemote(peerObj, fields)
}
