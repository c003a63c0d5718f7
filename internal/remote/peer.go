package remote

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aide/internal/netmodel"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// State is the connection-health state machine: healthy until a send
// needs retrying or a call times out (degraded), healthy again on the
// next clean reply, disconnected — terminally — when the transport dies
// or enough consecutive timeouts accumulate (Options.DisconnectAfter).
type State int32

// Connection states.
const (
	StateHealthy State = iota
	StateDegraded
	StateDisconnected
)

// String returns the state's name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDisconnected:
		return "disconnected"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Peer is one VM's half of the distributed platform connection. It
// implements vm.Peer for outgoing operations and services the other VM's
// requests: the data path on the goroutine that read the request — the
// thread blocked on the far side when there is one (paper §3.2: "the
// thread is not migrated") — and everything that can block or outlive its
// frame with a pool of worker threads ("Either JVM that receives a request
// uses a pool of threads to perform RPCs on behalf of the other JVM").
// recv.go has the receive side.
//
// Concurrency: the call fast path is lock-free up to the pending-table
// shard — an atomic ID allocation, one sharded map insert, atomic
// counters — so concurrent calls from VM threads and the worker pool do
// not serialize on a single peer lock.
type Peer struct {
	local     *vm.VM
	idx       int // this peer's index in the local VM's peer table
	transport Transport

	// link, when set, charges simulated network time to every crossing
	// (the paper's emulator WaveLAN model); nil charges nothing, leaving
	// wall-clock behaviour to the real transport.
	link *netmodel.Link

	nextID atomic.Uint64
	shards [pendingShards]pendingShard

	// closed flips exactly once; closeE (guarded by closeMu) records why.
	closed  atomic.Bool
	closeMu sync.Mutex
	closeE  error

	// rd is who reads the transport; intr is the transport's capability to
	// pass that on, nil when it has none (see readOwner).
	rd   readOwner
	intr RecvInterrupter

	// requests feeds the worker pool; free counts workers idle and not yet
	// spoken for, spilled the goroutines serving what found none (dispatch).
	requests chan *Message
	free     atomic.Int32
	spilled  atomic.Int32
	wg       sync.WaitGroup

	// now is the wall-clock source for RTT measurement and release-batch
	// aging, injectable so tests can drive both with a fake clock.
	now func() time.Time

	// Release coalescing: decrefs buffer in relBuf and flush as one
	// MsgReleaseBatch when the buffer reaches relBatch entries, when a
	// Release arrives relInterval after the buffer's first entry, before
	// any blocking call (ordering relative to re-export), and on Close.
	relMu       sync.Mutex
	relBuf      []vm.ObjectID
	relFirst    time.Time
	relBatch    int
	relInterval time.Duration

	// orphanE records (once per peer) the first reply that arrived with
	// no pending waiter; OrphanReplies counts them all. The once guard is
	// peer-wide — orphans landing on different pending-table shards still
	// produce a single record and a single log line.
	orphanOnce sync.Once
	orphanE    atomic.Value // error

	// Robustness knobs (fixed at construction, read lock-free).
	callTimeout     time.Duration
	retryMax        int
	retryBase       time.Duration
	disconnectAfter int32
	logf            func(format string, args ...any)
	onDown          func(p *Peer, cause error)
	gate            func(kind MsgKind) error
	sessionInfo     func() (sessions, freeBytes, capacityBytes int64)

	// state is the health state machine; consecTimeouts feeds the
	// degraded→disconnected escalation; jitterSeq drives deterministic
	// backoff jitter; stop wakes the health prober on teardown.
	state          atomic.Int32
	consecTimeouts atomic.Int32
	jitterSeq      atomic.Uint64
	stop           chan struct{}

	// dedupe drops duplicate incoming requests (dup faults, send retries
	// that did arrive) so server-side execution stays at-most-once and
	// release decrefs apply exactly once.
	dedupe *dedupeWindow

	// Snapshot hooks: snapHandler consumes an incoming image (push modes:
	// restore, handoff, drain); snapSource captures this side's image for
	// each pull request. No image bytes are kept between requests.
	snapMu      sync.Mutex
	snapHandler func(method, dest string, img []byte) error
	snapSource  func() ([]byte, error)

	// retired flips when this side acknowledges a SnapHandoff push: the
	// session this connection carried now lives elsewhere, so Close fails
	// stragglers with errRetired instead of plain ErrClosed.
	retired atomic.Bool

	// serveN counts in-flight serve() dispatches; serveCond (over
	// serveMu) wakes WaitServeIdle so a draining surrogate can quiesce a
	// session before snapshotting it.
	serveMu   sync.Mutex
	serveN    int
	serveCond *sync.Cond

	// m holds the wire accounting as telemetry instruments (atomic on
	// the fast path, like the counters struct it replaced); tracer
	// records offload-event spans when enabled. mnow is the metrics
	// clock — always the wall clock, deliberately separate from the
	// injectable now so latency measurement never consumes fake-clock
	// readings, and only consulted when the latency histogram exists
	// or the tracer is on.
	m      *peerMetrics
	tracer *telemetry.Tracer
	mnow   func() time.Time
}

var _ vm.Peer = (*Peer)(nil)

// A Peer also implements the optional pipelining extension; the VM
// type-asserts for it, so test fakes stay minimal.
var _ vm.PipelinePeer = (*Peer)(nil)

// Stats counts wire activity.
type Stats struct {
	RequestsSent     int64
	RequestsServed   int64
	BytesSent        int64
	BytesReceived    int64
	ObjectsMigrated  int64
	MigrationBytes   int64
	ReleasesSent     int64
	ReleasesReceived int64

	// ReleaseBatchesSent counts MsgReleaseBatch wire messages; the
	// coalescing win is ReleasesSent / ReleaseBatchesSent.
	ReleaseBatchesSent int64

	// OrphanReplies counts replies that arrived with no pending waiter
	// (late reply after a failed send, or a peer protocol bug).
	OrphanReplies int64

	// SendRetries counts re-sends after transient transport errors;
	// CallTimeouts counts calls abandoned at their deadline.
	SendRetries  int64
	CallTimeouts int64

	// BatchSendRetries and BatchCallTimeouts are the subsets of
	// SendRetries/CallTimeouts attributable to batched frames
	// (MsgInvokeBatch, MsgReleaseBatch), so single-call and multi-op
	// frame health read separately.
	BatchSendRetries  int64
	BatchCallTimeouts int64

	// PipelineFrames counts MsgInvokeBatch frames sent; PipelineCalls the
	// invocations they carried (PipelineCalls/PipelineFrames is the mean
	// pipeline depth).
	PipelineFrames int64
	PipelineCalls  int64

	// DuplicatesDropped counts incoming requests suppressed by the
	// dedupe window; ReleasesDropped counts decrefs lost when a release
	// batch exhausted its retry budget (export pins leak, never corrupt).
	DuplicatesDropped int64
	ReleasesDropped   int64

	// The hops of a round trip, as counts. SelfReads: replies read off the
	// wire by the goroutine that was waiting for them (of RequestsSent).
	// InlineServes: requests served by the goroutine that read them (of
	// RequestsServed). ReaderYields: times a background receiver gave the
	// connection's read side to a caller. QueueSpills: requests served on a
	// goroutine of their own because every worker was busy.
	SelfReads    int64
	InlineServes int64
	ReaderYields int64
	QueueSpills  int64
}

// Options configures a Peer.
type Options struct {
	// Workers sizes the RPC service pool, which serves the requests that
	// are not served where they were read (see servesInPlace). Zero
	// defaults to 4. It bounds neither call nesting nor concurrency: a
	// request that finds every worker busy runs on a goroutine of its own.
	Workers int

	// Link enables simulated network costing.
	Link *netmodel.Link

	// Now overrides the peer's wall-clock source (RTT probes, release
	// batch aging). Nil defaults to time.Now; tests inject a fake clock.
	Now func() time.Time

	// ReleaseBatchSize caps the release buffer; reaching it flushes a
	// MsgReleaseBatch. Zero defaults to 32; 1 disables coalescing.
	ReleaseBatchSize int

	// ReleaseFlushInterval bounds how long a buffered release may wait
	// for the batch to fill before the next Release flushes it. Zero
	// defaults to 1ms.
	ReleaseFlushInterval time.Duration

	// CallTimeout bounds how long a call waits for its reply. Zero
	// disables the deadline (a half-closed transport then hangs the
	// call, the pre-fault-tolerance behavior). Expired calls return
	// ErrCallTimeout and mark the connection degraded.
	CallTimeout time.Duration

	// RetryMax bounds re-send attempts after a transient transport
	// error, and reply-retries for idempotent requests (ping, info).
	// Zero defaults to 3; negative disables retries.
	RetryMax int

	// RetryBase is the first backoff step; attempt n waits in
	// [base<<n/2, base<<n] with deterministic jitter. Zero defaults
	// to 2ms.
	RetryBase time.Duration

	// DisconnectAfter escalates the peer to disconnected after this many
	// consecutive call timeouts. Zero defaults to 3; negative disables
	// the escalation.
	DisconnectAfter int

	// ProbeInterval starts a background health prober pinging the peer
	// at this period. Zero disables it. The prober relies on CallTimeout
	// to bound each probe; its failures feed the same DisconnectAfter
	// escalation as ordinary calls.
	ProbeInterval time.Duration

	// Logf, when set, receives the peer's rare diagnostic lines (orphan
	// replies, disconnect escalations). Nil discards them.
	Logf func(format string, args ...any)

	// OnDown, when set, is called exactly once if the connection is lost
	// involuntarily (transport failure or timeout escalation — never a
	// plain Close). It runs synchronously on the goroutine that observed
	// the failure, after every pending call has been failed; it must not
	// call p.Close directly (Close waits for that same goroutine —
	// spawn it).
	OnDown func(p *Peer, cause error)

	// Telemetry, when set, registers this peer's wire counters plus a
	// call-latency and release-batch-size histogram in the registry
	// (each peer a child; exposition sums them). Nil keeps the counters
	// standalone — Stats() works either way — and skips the histograms,
	// leaving the call path free of wall-clock reads.
	Telemetry *telemetry.Registry

	// Tracer, when set and enabled, receives structured offload-event
	// spans (RPC calls, migrations, disconnects, orphan replies).
	Tracer *telemetry.Tracer

	// Gate, when set, screens every incoming request before dispatch
	// (admission control, load shedding). A non-nil return fails the
	// request with the error's text and typed code (CodeOf) instead of
	// serving it; one-way kinds (release, release-batch) are dropped. The
	// gate runs on whichever goroutine serves the request and must be safe
	// for concurrent use.
	Gate func(kind MsgKind) error

	// SessionInfo, when set, overrides the occupancy payload of info and
	// attach replies with surrogate-wide numbers — admitted session
	// count, free and capacity bytes across every tenant — instead of
	// this peer's single VM heap. Runs on worker goroutines.
	SessionInfo func() (sessions, freeBytes, capacityBytes int64)

	// Takeover, when set, builds the peer to inherit an existing peer
	// slot instead of attaching a fresh one: the peer adopts *Takeover as
	// its index for wire encode/decode but is NOT bound into the local
	// VM's peer table. The live-handoff path uses this to construct the
	// replacement connection to the destination surrogate, restore the
	// session there, and only then vm.ReplacePeer the slot — preserving
	// the stub and import-table namespace while keeping the VM off the
	// half-initialized connection.
	Takeover *int
}

// NewPeer attaches a VM to a transport and starts a background receiver
// and the worker pool. The caller must Close the peer to stop them.
func NewPeer(local *vm.VM, t Transport, opts Options) *Peer {
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	p := &Peer{
		local:           local,
		transport:       t,
		link:            opts.Link,
		requests:        make(chan *Message, workers),
		now:             opts.Now,
		relBatch:        opts.ReleaseBatchSize,
		relInterval:     opts.ReleaseFlushInterval,
		callTimeout:     opts.CallTimeout,
		retryMax:        opts.RetryMax,
		retryBase:       opts.RetryBase,
		disconnectAfter: int32(opts.DisconnectAfter),
		logf:            opts.Logf,
		onDown:          opts.OnDown,
		gate:            opts.Gate,
		sessionInfo:     opts.SessionInfo,
		dedupe:          &dedupeWindow{seen: make(map[uint64]struct{}, dedupeSlots)},
		stop:            make(chan struct{}),
		m:               newPeerMetrics(opts.Telemetry),
		tracer:          opts.Tracer,
		mnow:            time.Now,
	}
	p.serveCond = sync.NewCond(&p.serveMu)
	p.rd.tok = make(chan struct{}, 1)
	p.rd.retired = make(chan struct{})
	p.rd.period.Store(int64(lazyResume))
	p.rd.timer = time.AfterFunc(lazyResume, p.resume)
	p.rd.timer.Stop()
	// Asking is the only way to learn whether a wrapper's inner transport
	// can interrupt; the interrupt it leaves pending costs the first
	// receiver one spurious wake-up.
	if ri, ok := t.(RecvInterrupter); ok && ri.InterruptRecv() {
		p.intr = ri
	}
	if p.now == nil {
		p.now = time.Now
	}
	if p.relBatch <= 0 {
		p.relBatch = 32
	}
	if p.relInterval <= 0 {
		p.relInterval = time.Millisecond
	}
	if p.retryMax == 0 {
		p.retryMax = 3
	} else if p.retryMax < 0 {
		p.retryMax = 0
	}
	if p.retryBase <= 0 {
		p.retryBase = 2 * time.Millisecond
	}
	if p.disconnectAfter == 0 {
		p.disconnectAfter = 3
	} else if p.disconnectAfter < 0 {
		p.disconnectAfter = 0
	}
	if opts.Takeover != nil {
		p.idx = *opts.Takeover
	} else {
		p.idx = local.AttachPeer(p)
	}
	workersPlus := 1 + workers
	if opts.ProbeInterval > 0 {
		workersPlus++
	}
	p.wg.Add(workersPlus)
	p.free.Store(int32(workers))
	p.rd.bg.Store(true)
	go p.recvLoop()
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	if opts.ProbeInterval > 0 {
		go p.prober(opts.ProbeInterval)
	}
	return p
}

// shardFor returns the pending-table shard owning a request ID.
func (p *Peer) shardFor(id uint64) *pendingShard {
	return &p.shards[id&(pendingShards-1)]
}

// fail marks the peer closed with the given cause (first cause wins) and
// wakes every pending caller. It reports whether this call won the race.
// An involuntary cause (one wrapping ErrDisconnected) flips the state
// machine to disconnected and fires the OnDown hook exactly once.
func (p *Peer) fail(cause error) bool {
	p.closeMu.Lock()
	if p.closed.Load() {
		p.closeMu.Unlock()
		return false
	}
	p.closeE = cause
	p.closed.Store(true)
	p.closeMu.Unlock()
	p.state.Store(int32(StateDisconnected))
	close(p.stop)
	p.serveCond.Broadcast() // wake WaitServeIdle waiters on teardown
	for i := range p.shards {
		p.shards[i].sweep()
	}
	p.interruptReader() // a caller blocked in Recv must see its waiter swept
	if errors.Is(cause, ErrDisconnected) {
		p.m.disconnected.Inc()
		if p.tracer.Enabled() {
			p.tracer.Emit(telemetry.Span{Kind: telemetry.SpanDisconnect, Peer: p.idx, Note: cause.Error(), Err: true})
		}
		p.logfSafe("remote: peer disconnected: %v", cause)
		if p.onDown != nil {
			p.onDown(p, cause)
		}
	}
	return true
}

// logfSafe forwards to the configured logger, if any.
func (p *Peer) logfSafe(format string, args ...any) {
	if p.logf != nil {
		p.logf(format, args...)
	}
}

// VMIndex returns this peer's slot in the local VM's peer table — the
// index DetachPeer and ReclaimStubs address it by.
func (p *Peer) VMIndex() int { return p.idx }

// PendingCalls reports how many issued calls are still awaiting a
// reply. A retiring connection (live handoff) polls this to zero before
// closing, so replies already on the wire are delivered rather than
// orphaned by the teardown.
func (p *Peer) PendingCalls() int {
	n := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// State returns the connection-health state.
func (p *Peer) State() State {
	if p.closed.Load() {
		return StateDisconnected
	}
	return State(p.state.Load())
}

// markDegraded downgrades a healthy connection (send retry, timeout).
func (p *Peer) markDegraded() {
	if p.state.CompareAndSwap(int32(StateHealthy), int32(StateDegraded)) {
		p.m.degraded.Inc()
	}
}

// noteReplyOK records a clean round trip: the timeout streak resets and
// a degraded connection heals.
func (p *Peer) noteReplyOK() {
	p.consecTimeouts.Store(0)
	if p.state.CompareAndSwap(int32(StateDegraded), int32(StateHealthy)) {
		p.m.healed.Inc()
	}
}

// failErr returns the recorded close cause.
func (p *Peer) failErr() error {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.closeE != nil {
		return p.closeE
	}
	return ErrClosed
}

// Close tears down the connection half: in-flight calls fail with
// ErrClosed (plus the drained redirect on a connection whose session was
// handed off, so a caller that picked this peer just before the swap is
// re-dispatched). Ad-hoc platform teardown (paper §2) is Close on both sides.
// Buffered releases flush first, so the peer drops its export pins
// before the transport dies.
func (p *Peer) Close() error {
	p.FlushReleases()
	cause := ErrClosed
	if p.retired.Load() {
		cause = errRetired
	}
	first := p.fail(cause)
	err := p.transport.Close()
	// Someone has to read the stream to its end, so that what the far side
	// sent before it saw us close (its Close-time release batch) is
	// applied: the receiver that is reading, or one started here if the
	// last reader was a caller, now gone.
	select {
	case <-p.rd.tok:
		p.startReceiver()
	case <-p.rd.retired:
	}
	p.wg.Wait()
	if !first {
		// Already torn down (earlier Close, or a transport failure);
		// waiting above still guarantees the workers have drained.
		return nil
	}
	return err
}

// Stats returns a snapshot of wire counters. It is a shim over this
// peer's telemetry instruments: the same atomics feed the process-wide
// registry (when one is wired) and this per-peer read-back.
func (p *Peer) Stats() Stats {
	return Stats{
		RequestsSent:       p.m.requestsSent.Value(),
		RequestsServed:     p.m.requestsServed.Value(),
		BytesSent:          p.m.bytesSent.Value(),
		BytesReceived:      p.m.bytesReceived.Value(),
		ObjectsMigrated:    p.m.objectsMigrated.Value(),
		MigrationBytes:     p.m.migrationBytes.Value(),
		ReleasesSent:       p.m.releasesSent.Value(),
		ReleasesReceived:   p.m.releasesReceived.Value(),
		ReleaseBatchesSent: p.m.releaseBatchesSent.Value(),
		OrphanReplies:      p.m.orphanReplies.Value(),
		SendRetries:        p.m.sendRetries.Value(),
		CallTimeouts:       p.m.callTimeouts.Value(),
		BatchSendRetries:   p.m.batchSendRetries.Value(),
		BatchCallTimeouts:  p.m.batchCallTimeouts.Value(),
		PipelineFrames:     p.m.pipelineFrames.Value(),
		PipelineCalls:      p.m.pipelineCalls.Value(),
		DuplicatesDropped:  p.m.duplicatesDropped.Value(),
		ReleasesDropped:    p.m.releasesDropped.Value(),
		SelfReads:          p.m.selfReads.Value(),
		InlineServes:       p.m.inlineServes.Value(),
		ReaderYields:       p.m.readerYields.Value(),
		QueueSpills:        p.m.queueSpills.Value(),
	}
}

// Warn returns the first anomaly the receive loop observed (currently:
// a reply with no pending waiter), or nil. The condition is recorded
// once; OrphanReplies in Stats counts every occurrence.
func (p *Peer) Warn() error {
	if e, ok := p.orphanE.Load().(error); ok {
		return e
	}
	return nil
}

// call sends a request and blocks for the matching reply, under the
// peer's configured deadline.
func (p *Peer) call(m *Message) (*Message, error) {
	return p.Call(p.lifeCtx(), m)
}

// lifeCtx returns a context bound to the peer's lifetime: done when the
// peer fails or closes, with Err reporting the peer's failure error
// (ErrClosed, or the wrapped ErrDisconnected cause) so failover paths
// that errors.Is on those sentinels keep working. The peer deliberately
// does not store a context.Context — contexts are call-scoped, and a
// stored one would hide the cancel's lifetime (ctxcheck flags that
// shape); instead the context is derived on demand from the stop
// channel the peer already owns.
func (p *Peer) lifeCtx() context.Context { return peerCtx{p} }

// LifeContext exposes the peer-lifetime context to platform layers whose
// work is scoped to this connection but runs outside any caller's call
// chain — a handoff handler re-homing a session, a speculation race. It
// is done exactly when the peer fails or closes.
func (p *Peer) LifeContext() context.Context { return p.lifeCtx() }

// peerCtx adapts the peer's stop channel to context.Context for the
// ctx-less compatibility wrappers and the peer's own background loops.
type peerCtx struct{ p *Peer }

func (c peerCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c peerCtx) Done() <-chan struct{}       { return c.p.stop }
func (c peerCtx) Value(key any) any           { return nil }

func (c peerCtx) Err() error {
	if c.p.closed.Load() {
		return c.p.failErr()
	}
	return nil
}

// Call sends a request and blocks for the matching reply. Buffered
// releases flush first so a release never reorders after a call that
// could re-export the same object. The wait honors ctx (cancellation and
// deadline) plus the peer's configured CallTimeout; a transient send
// failure is retried with backoff — safe for every request kind, since a
// failed send never reached the peer. A call abandoned at its deadline
// marks the connection degraded; Options.DisconnectAfter consecutive
// timeouts escalate to a full disconnect.
//
// With telemetry wired the round trip lands in the call-latency
// histogram and, when the tracer is on, an rpc span (parent-linked via
// telemetry.WithSpan on ctx). Without it, this wrapper adds one nil
// check and no clock reads.
func (p *Peer) Call(ctx context.Context, m *Message) (*Message, error) {
	lat := p.m.callLatency
	traced := p.tracer.Enabled()
	if lat == nil && !traced {
		return p.doCall(ctx, m)
	}
	start := p.mnow()
	reply, err := p.doCall(ctx, m)
	d := p.mnow().Sub(start)
	lat.Observe(d)
	if traced {
		p.tracer.Emit(telemetry.Span{
			Parent: telemetry.SpanFrom(ctx),
			Kind:   telemetry.SpanRPC,
			Note:   m.Kind.String(),
			Peer:   p.idx,
			Bytes:  m.Wire,
			Err:    err != nil,
			Start:  start,
			Dur:    d,
		})
	}
	return reply, err
}

// doCall is Call without the instrumentation wrapper.
func (p *Peer) doCall(ctx context.Context, m *Message) (*Message, error) {
	p.FlushReleases()
	if p.closed.Load() {
		return nil, p.failErr()
	}
	id := p.nextID.Add(1)
	m.ID = id
	ch := make(chan *Message, 1)
	sh := p.shardFor(id)
	sh.put(id, ch)
	// Re-check after publishing the waiter: a concurrent fail() that
	// swept before our insert would otherwise strand this call forever.
	if p.closed.Load() {
		sh.take(id)
		return nil, p.failErr()
	}
	p.m.requestsSent.Inc()

	if p.askToYield() {
		defer p.doneEvicting()
	}
	if err := p.sendRetry(ctx, m); err != nil {
		sh.take(id)
		return nil, err
	}

	var expired chan struct{}
	if p.callTimeout > 0 {
		expired = make(chan struct{})
		timer := time.AfterFunc(p.callTimeout, func() {
			close(expired)
			p.interruptReader()
		})
		defer timer.Stop()
	}
	reply, ok, end := p.await(ctx, id, ch, expired)
	if end != waitReplied {
		var raced bool
		if reply, ok, raced = p.raceReply(id, sh, ch); raced {
			end = waitReplied
		}
	}
	switch end {
	case waitCanceled:
		return nil, fmt.Errorf("remote: %s call id=%d: %w", m.Kind, id, ctx.Err())
	case waitExpired:
		p.m.callTimeouts.Inc()
		if isBatchFrame(m.Kind) {
			p.m.batchCallTimeouts.Inc()
		}
		p.markDegraded()
		n := p.consecTimeouts.Add(1)
		if p.disconnectAfter > 0 && n >= p.disconnectAfter {
			cause := fmt.Errorf("%w: %d consecutive call timeouts", ErrDisconnected, n)
			p.fail(cause)
			return nil, fmt.Errorf("remote: %s call id=%d: %w after %v: %w", m.Kind, id, ErrCallTimeout, p.callTimeout, cause)
		}
		return nil, fmt.Errorf("remote: %s call id=%d: %w after %v", m.Kind, id, ErrCallTimeout, p.callTimeout)
	}
	return p.finishCall(m, reply, ok)
}

// raceReply resolves the race between an expiring deadline and an
// arriving reply: if a reader already claimed the waiter, the reply is
// imminent (or buffered) and wins over the timeout.
func (p *Peer) raceReply(id uint64, sh *pendingShard, ch chan *Message) (*Message, bool, bool) {
	if _, ok := sh.take(id); ok {
		// We won: no reply will ever be delivered to ch.
		return nil, false, false
	}
	// A reader took the waiter first; its buffered send cannot block, so
	// the reply is either here or arrives momentarily.
	reply, ok := <-ch
	return reply, ok, true
}

// finishCall turns a delivered reply (or a swept waiter) into the call's
// result.
func (p *Peer) finishCall(m *Message, reply *Message, ok bool) (*Message, error) {
	if !ok {
		return nil, p.failErr()
	}
	p.noteReplyOK()
	// A failed MsgInvokeBatch reply is not an error at this layer: it
	// carries the successful-prefix results and the failing call's index,
	// which InvokePipeline turns into a per-call outcome.
	if reply.Err != "" && m.Kind != MsgInvokeBatch {
		return nil, &RemoteError{Kind: m.Kind, Msg: reply.Err, Code: ErrorCode(reply.ErrCode)}
	}
	return reply, nil
}

// isBatchFrame reports whether a message kind carries many operations in
// one frame; Stats tracks their retry/timeout health separately from
// single-call frames.
func isBatchFrame(k MsgKind) bool {
	return k == MsgInvokeBatch || k == MsgReleaseBatch
}

// send is where bytes leave: every frame this peer writes — request,
// reply, release batch — goes through here, and one that the transport
// took is counted at the length the transport stamped on it.
func (p *Peer) send(m *Message) error {
	err := p.transport.Send(m)
	if err == nil {
		p.m.bytesSent.Add(m.Wire)
	}
	return err
}

// sendRetry sends m, retrying transient transport errors with
// exponential backoff and deterministic jitter. A send failure means the
// message never reached the wire, so a retry of any kind is safe —
// exactly-once is only at risk after a successful send, and the
// receiver's dedupe window covers even that (an "errored" send that was
// in fact delivered). context.Canceled propagates immediately, never
// retried; a transport that reports itself closed is not transient and
// escalates to disconnected at once.
func (p *Peer) sendRetry(ctx context.Context, m *Message) error {
	var err error
	for attempt := 0; ; attempt++ {
		if p.closed.Load() {
			return p.failErr()
		}
		if err = p.send(m); err == nil {
			return nil
		}
		if errors.Is(err, ErrClosed) {
			// The transport is closed under a peer that is not: a loss this
			// sender saw before the receive loop did. No retry can succeed,
			// so escalate — the caller gets the disconnect and its failover.
			p.fail(fmt.Errorf("%w: send: %v", ErrDisconnected, err))
			return p.failErr()
		}
		if attempt >= p.retryMax {
			return err
		}
		if cerr := ctx.Err(); cerr != nil {
			// context.Canceled (and an expired deadline) aborts the
			// retry loop unretried: a canceled caller must never be held
			// hostage by backoff sleeps.
			return cerr
		}
		p.markDegraded()
		p.m.sendRetries.Inc()
		if isBatchFrame(m.Kind) {
			p.m.batchSendRetries.Inc()
		}
		if err := p.pause(ctx, p.backoff(attempt)); err != nil {
			return err
		}
	}
}

// pause waits out a retry back-off unless the caller or the peer gives up
// first, returning ctx's error or the peer's failure error then.
func (p *Peer) pause(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-p.stop:
		return p.failErr()
	}
}

// backoff returns the wait before retry attempt n: exponential from
// RetryBase with deterministic decorrelated jitter in [step/2, step].
// The jitter source is a splitmix64 hash of a per-peer sequence — no
// global randomness, so runs with a fixed schedule stay reproducible.
func (p *Peer) backoff(attempt int) time.Duration {
	if attempt > 10 {
		attempt = 10
	}
	step := p.retryBase << uint(attempt)
	x := p.jitterSeq.Add(1) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	half := uint64(step / 2)
	return time.Duration(half + x%(half+1))
}

// netCost returns the simulated link time for a request/reply exchange,
// from the frame lengths the transport stamped on the two.
func (p *Peer) netCost(req, reply *Message) time.Duration {
	if p.link == nil {
		return 0
	}
	return p.link.RPC(req.Wire, reply.Wire)
}

// InvokeRemote implements vm.Peer.
func (p *Peer) InvokeRemote(peerObj vm.ObjectID, method string, args []vm.Value) (vm.Value, time.Duration, error) {
	wargs, err := p.local.EncodeOutgoingAll(p.idx, args)
	if err != nil {
		return vm.Nil(), 0, err
	}
	req := &Message{Kind: MsgInvoke, Obj: peerObj, Method: method, Args: wargs}
	reply, err := p.call(req)
	if err != nil {
		return vm.Nil(), 0, err
	}
	ret, err := p.local.DecodeIncoming(p.idx, reply.Ret)
	if err != nil {
		return vm.Nil(), 0, err
	}
	return ret, time.Duration(reply.ElapsedNanos) + p.netCost(req, reply), nil
}

// InvokeNativeRemote implements vm.Peer: a native method is directed back
// to the client VM.
func (p *Peer) InvokeNativeRemote(class, method string, peerSelf vm.ObjectID, selfIsCallerLocal bool, args []vm.Value) (vm.Value, time.Duration, error) {
	if selfIsCallerLocal {
		// Instance natives only exist on pinned classes, whose objects
		// never migrate; a locally hosted receiver here means a policy
		// violated that invariant.
		return vm.Nil(), 0, fmt.Errorf("remote: native %s.%s invoked on migrated object %d", class, method, peerSelf)
	}
	wargs, err := p.local.EncodeOutgoingAll(p.idx, args)
	if err != nil {
		return vm.Nil(), 0, err
	}
	req := &Message{Kind: MsgNativeInvoke, Class: class, Method: method, Obj: peerSelf, Args: wargs}
	reply, err := p.call(req)
	if err != nil {
		return vm.Nil(), 0, err
	}
	ret, err := p.local.DecodeIncoming(p.idx, reply.Ret)
	if err != nil {
		return vm.Nil(), 0, err
	}
	return ret, time.Duration(reply.ElapsedNanos) + p.netCost(req, reply), nil
}

// InvokePipeline implements vm.PipelinePeer: it ships a whole chain of
// dependent calls as one MsgInvokeBatch frame. The reply's Rets hold the
// executed calls' results in order; a frame that failed part-way comes
// back as a PipelineOutcome naming the failing call (nil error), so the
// VM can fail exactly the dependent promises.
func (p *Peer) InvokePipeline(ctx context.Context, calls []vm.PipelineCall) (vm.PipelineOutcome, error) {
	p.m.pipelineFrames.Inc()
	p.m.pipelineCalls.Add(int64(len(calls)))
	p.m.pipelineDepth.ObserveInt(int64(len(calls)))
	req := &Message{Kind: MsgInvokeBatch, Calls: calls}
	reply, err := p.Call(ctx, req)
	if err != nil {
		return vm.PipelineOutcome{}, err
	}
	out := vm.PipelineOutcome{
		Rets:     reply.Rets,
		ErrIndex: -1,
		Elapsed:  time.Duration(reply.ElapsedNanos) + p.netCost(req, reply),
	}
	if reply.Err != "" {
		if reply.ErrIndex <= 0 {
			// Not attributable to a single call: a frame-level failure
			// (decode error, protocol violation) surfaces as a plain
			// remote error.
			return vm.PipelineOutcome{}, &RemoteError{Kind: MsgInvokeBatch, Msg: reply.Err}
		}
		out.ErrIndex = int(reply.ErrIndex) - 1
		out.ErrMsg = reply.Err
	}
	return out, nil
}

// servePipeline executes a MsgInvokeBatch frame: strictly in call order,
// resolving promise receivers and promise arguments against earlier
// results. On a failure at call i it returns the successful prefix's
// encoded results with errIdx=i; errIdx -1 means either full success or
// (with err non-nil) a failure not attributable to one call.
func (p *Peer) servePipeline(calls []vm.PipelineCall) (rets []vm.WireValue, elapsed time.Duration, errIdx int, err error) {
	results := make([]vm.Value, 0, len(calls))
	// The frame executes inside one virtual-clock bracket: the accrued
	// service time is rewound here and charged to the requester via the
	// returned elapsed, exactly like a single served invocation's.
	mark := p.local.ClockMark()
	fail := func(i int, ferr error) ([]vm.WireValue, time.Duration, int, error) {
		elapsed = p.local.ClockRewind(mark)
		prefix, eerr := p.local.EncodeOutgoingAll(p.idx, results)
		if eerr != nil {
			return nil, elapsed, -1, eerr
		}
		return prefix, elapsed, i, ferr
	}
	// One decoded-argument arena and one service thread for the whole
	// frame: per-call slices are carved full-capacity out of the arena
	// (never overlapping, so a body retaining its args stays safe).
	total := 0
	for i := range calls {
		total += len(calls[i].Args)
	}
	arena := make([]vm.Value, total)
	off := 0
	th := p.local.NewThread()
	for i := range calls {
		c := &calls[i]
		target := c.Obj
		if c.Recv >= 0 {
			if int(c.Recv) >= i {
				return fail(i, fmt.Errorf("pipeline call %d: receiver promise %d not yet resolved", i, c.Recv))
			}
			rv := results[c.Recv]
			if rv.Kind != vm.KindRef || rv.Ref == vm.InvalidObject {
				return fail(i, fmt.Errorf("pipeline call %d: receiver promise %d resolved to %s, not an object reference", i, c.Recv, rv))
			}
			target = rv.Ref
		}
		args := arena[off : off+len(c.Args) : off+len(c.Args)]
		off += len(c.Args)
		if derr := p.local.DecodeIncomingSlice(p.idx, c.Args, args); derr != nil {
			return fail(i, derr)
		}
		for _, pa := range c.ArgPromises {
			if pa.Pos < 0 || int(pa.Pos) >= len(args) || pa.Call < 0 || int(pa.Call) >= i {
				return fail(i, fmt.Errorf("pipeline call %d: bad argument promise (pos %d, call %d)", i, pa.Pos, pa.Call))
			}
			args[pa.Pos] = results[pa.Call]
		}
		ret, serr := th.Invoke(target, c.Method, args...)
		if serr != nil {
			return fail(i, serr)
		}
		results = append(results, ret)
	}
	elapsed = p.local.ClockRewind(mark)
	rets, err = p.local.EncodeOutgoingAll(p.idx, results)
	if err != nil {
		return nil, elapsed, -1, err
	}
	return rets, elapsed, -1, nil
}

// GetFieldRemote implements vm.Peer.
func (p *Peer) GetFieldRemote(peerObj vm.ObjectID, field string) (vm.Value, error) {
	req := &Message{Kind: MsgGetField, Obj: peerObj, Field: field}
	reply, err := p.call(req)
	if err != nil {
		return vm.Nil(), err
	}
	p.local.AdvanceClock(p.netCost(req, reply))
	return p.local.DecodeIncoming(p.idx, reply.Ret)
}

// SetFieldRemote implements vm.Peer.
func (p *Peer) SetFieldRemote(peerObj vm.ObjectID, field string, v vm.Value) error {
	wv, err := p.local.EncodeOutgoing(p.idx, v)
	if err != nil {
		return err
	}
	req := &Message{Kind: MsgSetField, Obj: peerObj, Field: field, Args: []vm.WireValue{wv}}
	reply, err := p.call(req)
	if err != nil {
		return err
	}
	p.local.AdvanceClock(p.netCost(req, reply))
	return nil
}

// GetStaticRemote implements vm.Peer.
func (p *Peer) GetStaticRemote(class, field string) (vm.Value, error) {
	req := &Message{Kind: MsgGetStatic, Class: class, Field: field}
	reply, err := p.call(req)
	if err != nil {
		return vm.Nil(), err
	}
	p.local.AdvanceClock(p.netCost(req, reply))
	return p.local.DecodeIncoming(p.idx, reply.Ret)
}

// SetStaticRemote implements vm.Peer.
func (p *Peer) SetStaticRemote(class, field string, v vm.Value) error {
	wv, err := p.local.EncodeOutgoing(p.idx, v)
	if err != nil {
		return err
	}
	req := &Message{Kind: MsgSetStatic, Class: class, Field: field, Args: []vm.WireValue{wv}}
	reply, err := p.call(req)
	if err != nil {
		return err
	}
	p.local.AdvanceClock(p.netCost(req, reply))
	return nil
}

// Release implements vm.Peer: fire-and-forget distributed-GC decrements.
// Decrefs coalesce into a per-peer buffer and ship as one
// MsgReleaseBatch (paper §3.2's reference releases, batched so a stub
// collection storm costs O(storm/batch) wire messages, not O(storm)). A
// call that brings the buffer to the batch size ships all of it in one
// frame, so a collection's releases cost one frame however many there are.
func (p *Peer) Release(peerObjs ...vm.ObjectID) {
	if p.closed.Load() || len(peerObjs) == 0 {
		return
	}
	p.m.releasesSent.Add(int64(len(peerObjs)))
	t := p.now()
	p.relMu.Lock()
	if len(p.relBuf) == 0 {
		p.relFirst = t
	}
	p.relBuf = append(p.relBuf, peerObjs...)
	flush := len(p.relBuf) >= p.relBatch || t.Sub(p.relFirst) >= p.relInterval
	p.relMu.Unlock()
	if flush {
		p.FlushReleases()
	}
}

// FlushReleases ships the buffered release decrefs now, as one batch
// message. A side that has just collected and may not call its peer again
// soon — the client after an offload, the surrogate after serving a
// recall — calls it so the far side's pins drop without waiting.
// It deliberately does not read the clock: callers on the blocking-call
// path (call, Info) must not consume fake-clock readings.
func (p *Peer) FlushReleases() {
	p.relMu.Lock()
	ids := p.relBuf
	p.relBuf = nil
	p.relMu.Unlock()
	if len(ids) == 0 {
		return
	}
	m := &Message{ID: p.nextID.Add(1), Kind: MsgReleaseBatch, IDs: ids}
	p.m.releaseBatchesSent.Inc()
	p.m.releaseBatch.ObserveInt(int64(len(ids)))
	// Retried with the same message ID on transient failure, so the
	// receiver's dedupe window makes an "errored but delivered" send
	// harmless: every decref applies exactly once. A batch that exhausts
	// the retry budget is dropped — export pins leak, never corrupt.
	if err := p.sendRetry(p.lifeCtx(), m); err != nil {
		p.m.releasesDropped.Add(int64(len(ids)))
	}
}

// Offload migrates all live local objects of the named classes to the
// peer, converting the local copies to stubs. It returns the number of
// objects and payload bytes moved and charges the transfer to the
// simulated clock when a link model is attached. With the tracer on it
// emits a migration span whose ID parents the underlying RPC span.
func (p *Peer) Offload(classNames []string) (objects int, bytes int64, err error) {
	return p.OffloadContext(p.lifeCtx(), classNames)
}

// OffloadContext is Offload bounded by ctx: the migration call aborts
// when ctx is cancelled or its deadline expires.
func (p *Peer) OffloadContext(ctx context.Context, classNames []string) (objects int, bytes int64, err error) {
	err = p.span(ctx, telemetry.SpanMigration, "offload", func(ctx context.Context, s *telemetry.Span) (err error) {
		objects, bytes, err = p.offload(ctx, classNames)
		s.N, s.Bytes = int64(objects), bytes
		return err
	})
	return objects, bytes, err
}

// span runs body as one traced operation: body gets a ctx carrying the new
// span's ID, so the RPC spans beneath it name it as parent, and records
// what it moved (N, Bytes) on s; kind, note, peer, outcome and timing are
// filled in here. With the tracer off it only calls body.
func (p *Peer) span(ctx context.Context, kind telemetry.SpanKind, note string, body func(context.Context, *telemetry.Span) error) error {
	if !p.tracer.Enabled() {
		return body(ctx, &telemetry.Span{})
	}
	s := telemetry.Span{ID: p.tracer.NextID(), Kind: kind, Note: note, Peer: p.idx, Start: p.mnow()}
	err := body(telemetry.WithSpan(ctx, s.ID), &s)
	s.Err, s.Dur = err != nil, p.mnow().Sub(s.Start)
	p.tracer.Emit(s)
	return err
}

func (p *Peer) offload(ctx context.Context, classNames []string) (objects int, bytes int64, err error) {
	// The batch is written into a pooled frame buffer; the transport is
	// done with it by the time Call returns.
	bp := getFrameBuf()
	mig, err := p.local.ExtractMigration((*bp)[:0], classNames)
	if err != nil {
		putFrameBuf(bp, *bp)
		return 0, 0, fmt.Errorf("remote: offload: %w", err)
	}
	defer putFrameBuf(bp, mig.Batch)
	if len(mig.IDs) == 0 {
		return 0, 0, nil
	}
	reply, err := p.Call(ctx, &Message{Kind: MsgMigrate, Batch: mig.Batch})
	if err == nil && len(reply.IDs) != len(mig.IDs) {
		err = fmt.Errorf("peer assigned %d ids for %d objects", len(reply.IDs), len(mig.IDs))
	}
	if err == nil {
		err = p.local.ConvertToStubs(p.idx, mig.IDs, reply.IDs)
	}
	if err != nil {
		// The objects stay here: drop the pins that kept them for the
		// copies in flight.
		p.local.ReleaseExport(mig.IDs...)
		return 0, 0, fmt.Errorf("remote: offload: %w", err)
	}
	if p.link != nil {
		p.local.AdvanceClock(p.link.Transfer(mig.Bytes, 1400))
	}
	p.m.objectsMigrated.Add(int64(len(mig.IDs)))
	p.m.migrationBytes.Add(mig.Bytes)
	return len(mig.IDs), mig.Bytes, nil
}

// Ping round-trips a health probe (MsgPing → MsgPong; latency probe; the
// ad-hoc platform uses it to rank candidate surrogates). Pings are
// idempotent, so a failed round trip is retried up to the peer's retry
// budget.
func (p *Peer) Ping() error {
	return p.Probe(p.lifeCtx())
}

// Probe sends one health-check ping under ctx with idempotent retries.
// Probe timeouts feed the same consecutive-timeout escalation as
// ordinary calls, so repeated probing of a silently dead transport
// eventually declares the peer disconnected.
func (p *Peer) Probe(ctx context.Context) error {
	_, err := p.retryIdempotent(ctx, func() *Message { return &Message{Kind: MsgPing} })
	return err
}

// retryIdempotent reissues an idempotent request (ping, info) until it
// succeeds or the retry budget runs out. Only safe for requests whose
// re-execution is harmless — the reply may have been lost after the peer
// executed an earlier copy. context.Canceled propagates unretried;
// remote application errors and a closed peer end the loop immediately.
func (p *Peer) retryIdempotent(ctx context.Context, mk func() *Message) (*Message, error) {
	var reply *Message
	var err error
	for attempt := 0; attempt <= p.retryMax; attempt++ {
		if attempt > 0 {
			if cerr := ctx.Err(); cerr != nil {
				// context.Canceled is never retried.
				return nil, cerr
			}
			if err := p.pause(ctx, p.backoff(attempt-1)); err != nil {
				return nil, err
			}
		}
		reply, err = p.Call(ctx, mk())
		if err == nil {
			return reply, nil
		}
		var rerr *RemoteError
		if errors.Is(err, context.Canceled) || errors.As(err, &rerr) || p.closed.Load() {
			return nil, err
		}
	}
	return nil, err
}

// prober is the background health probe: one ping every interval,
// bounded by the peer's CallTimeout. It keeps the state machine honest
// while the application is idle — a silently dead transport accumulates
// probe timeouts until DisconnectAfter escalates it.
func (p *Peer) prober(interval time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if p.closed.Load() {
				return
			}
			if _, err := p.Call(p.lifeCtx(), &Message{Kind: MsgPing}); err != nil {
				p.logfSafe("remote: health probe failed: %v", err)
			}
		}
	}
}

// PeerInfo describes the remote VM's resources (surrogate selection,
// paper §2: clients determine which surrogates are most appropriate based
// on latency of access and resource availability).
type PeerInfo struct {
	FreeBytes     int64
	CapacityBytes int64
	CPUSpeed      float64

	// Sessions is the serving surrogate's admitted session count, when it
	// reports one (info/attach against a session-aware surrogate); 0
	// otherwise.
	Sessions int64

	// RTT is the wall-clock round trip of the info probe.
	RTT time.Duration
}

// Info probes the peer's resources and measures the probe's round trip.
// Info requests are read-only, hence idempotent and retried like pings;
// the measured RTT includes any retry latency (a degraded link honestly
// ranks worse).
func (p *Peer) Info() (PeerInfo, error) {
	return p.InfoContext(p.lifeCtx())
}

// InfoContext is Info bounded by ctx: the resource probe (including its
// idempotent retries) aborts when ctx is cancelled or expires.
func (p *Peer) InfoContext(ctx context.Context) (PeerInfo, error) {
	return p.probeInfo(ctx, MsgInfo)
}

// probeInfo round-trips an occupancy request (MsgInfo or MsgAttach, both
// idempotent) and reads the reply's payload and the probe's RTT.
func (p *Peer) probeInfo(ctx context.Context, kind MsgKind) (PeerInfo, error) {
	start := p.now()
	reply, err := p.retryIdempotent(ctx, func() *Message { return &Message{Kind: kind} })
	if err != nil {
		return PeerInfo{}, err
	}
	return PeerInfo{
		FreeBytes:     reply.FreeBytes,
		CapacityBytes: reply.CapacityBytes,
		CPUSpeed:      reply.CPUSpeed,
		Sessions:      reply.Sessions,
		RTT:           p.now().Sub(start),
	}, nil
}

// Attach opens this peer's session with the serving side: the request
// runs the remote admission control and the reply reports occupancy
// (PeerInfo plus Sessions). A rejection comes back as a RemoteError
// whose code unwraps to ErrAdmissionRejected or ErrShed. Attaching is
// idempotent — the serving side's decision is sticky — so lost replies
// retry like pings.
func (p *Peer) Attach(ctx context.Context) (PeerInfo, error) {
	return p.probeInfo(ctx, MsgAttach)
}

// Recall asks the peer to migrate its live objects of the named classes
// back to this VM: the reverse of Offload, the paper's §8 "global
// placement" direction ("moving objects from the surrogate to the client
// device"). Stubs this VM already holds upgrade in place, so references
// stay valid.
func (p *Peer) Recall(classNames []string) (objects int, bytes int64, err error) {
	return p.RecallContext(p.lifeCtx(), classNames)
}

// RecallContext is Recall bounded by ctx: the migration call aborts
// when ctx is cancelled or its deadline expires.
func (p *Peer) RecallContext(ctx context.Context, classNames []string) (objects int, bytes int64, err error) {
	err = p.span(ctx, telemetry.SpanMigration, "recall", func(ctx context.Context, s *telemetry.Span) (err error) {
		objects, bytes, err = p.recall(ctx, classNames)
		s.N, s.Bytes = int64(objects), bytes
		return err
	})
	return objects, bytes, err
}

func (p *Peer) recall(ctx context.Context, classNames []string) (objects int, bytes int64, err error) {
	reply, err := p.Call(ctx, &Message{Kind: MsgRecall, Classes: classNames})
	if err != nil {
		return 0, 0, fmt.Errorf("remote: recall: %w", err)
	}
	if p.link != nil && reply.MovedBytes > 0 {
		p.local.AdvanceClock(p.link.Transfer(reply.MovedBytes, 1400))
	}
	return int(reply.Objects), reply.MovedBytes, nil
}

// NewPair wires two VMs together in process: the client and surrogate
// halves of an ad-hoc platform without a network. Close both peers to tear
// the platform down.
func NewPair(client, surrogate *vm.VM, opts Options) (*Peer, *Peer) {
	ta, tb := NewChannelPair()
	pc := NewPeer(client, ta, opts)
	ps := NewPeer(surrogate, tb, opts)
	return pc, ps
}
