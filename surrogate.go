package aide

import (
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aide/internal/remote"
	"aide/internal/snapshot"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// ErrDrainUnauthorized reports a wire drain directive refused because it
// did not present the surrogate's WithDrainKey credential (or because no
// key is configured, which disables wire drains entirely). Any connected
// tenant can reach the directive handler, so the directive itself must
// prove it speaks for the fleet coordinator — an unauthenticated drain
// would let one tenant redirect every other tenant's session state to an
// address of its choosing.
var ErrDrainUnauthorized = errors.New("aide: drain directive unauthorized")

// Surrogate is the platform on a nearby server that lends its resources to
// clients. A device can perform the role of a surrogate with respect to a
// client even though it may be used independently for other purposes
// (paper §2). One surrogate multiplexes many tenants: each attached client
// gets a private session VM carved out of the surrogate's heap budget, and
// admission control, load shedding, and eviction keep the shared budget
// honest under pressure.
type Surrogate struct {
	opts options
	reg  *Registry
	sm   surrogateMetrics

	// idle is the surrogate's own VM: the heap/clock reported before any
	// tenant attaches, and the construction point for the telemetry the
	// surrogate registers once (session VMs deliberately carry none — a
	// churning tenant must not grow the registry).
	idle *vm.VM

	mu sync.Mutex
	// sessions indexes every live session by its serving peer; order
	// holds the same sessions in attach order (oldest first), which makes
	// the single-tenant accessors (VM, Clock) deterministic.
	sessions map[*remote.Peer]*session
	order    []*session
	seq      uint64
	// admitted counts sessions past admission; committed sums their heap
	// quotas — the number the quota cap checks against the heap budget.
	admitted  int
	committed int64
	// Monotonic decision counters, surfaced by Stats().
	admittedTotal, rejectedTotal, shedTotal, evictedTotal, drainedTotal, drainAbortedTotal int64

	ln     net.Listener
	closed bool
	// wg joins the accept loop and the asynchronous session closers;
	// Close waits on it so no goroutine outlives the surrogate. Add
	// happens under mu, serialized against Close's closed-flag flip, so
	// it can never race a Wait at zero.
	wg sync.WaitGroup
}

// session is one attached tenant: a private VM sized to the tenant's heap
// quota, the peer serving its requests, and the admission state machine —
// lobby (neither flag), admitted, or terminally rejected/evicted
// (rejectErr set, sticky).
type session struct {
	seq   uint64
	peer  *remote.Peer
	vm    *vm.VM
	quota int64

	// ready closes once Serve has installed the connection's handlers and
	// filed the session (or found the surrogate closed). The peer serves
	// from the moment it is built, so the gate and OnDown wait on it: no
	// request is served or failure reaped before the table knows the session.
	ready chan struct{}

	// admitted is the gate's lock-free fast path; transitions happen
	// under the surrogate mutex. rejectErr is guarded by that mutex.
	admitted  atomic.Bool
	rejectErr error

	// draining flips when a live handoff of this session begins: the gate
	// answers every later work request with the typed remote.ErrDrained so
	// the client's drain handler blocks the calling thread until the slot
	// is re-pointed at the destination surrogate. A failed handoff clears
	// it and the session resumes in place.
	draining atomic.Bool
}

// SurrogateStats reports the surrogate's session-control decisions.
type SurrogateStats struct {
	// Active is the number of currently admitted sessions.
	Active int
	// Admitted counts sessions ever admitted; Rejected those refused at
	// the session or heap-quota cap; Shed those refused while degraded;
	// Evicted those torn down to reclaim capacity; Drained those handed
	// off live to another surrogate. DrainAborted counts handoffs a drain
	// gave up on without reporting an error because the session's own
	// connection closed under the transfer: the client left and the
	// session is reaped like any lost connection. A drain that "moved 0
	// sessions" with a nil error shows up here.
	Admitted     int64
	Rejected     int64
	Shed         int64
	Evicted      int64
	Drained      int64
	DrainAborted int64
}

// NewSurrogate builds a surrogate platform over the shared class registry.
// Surrogates generally have more computing power and memory than clients;
// configure with WithHeap and WithCPUSpeed. Multi-tenant limits come from
// WithMaxSessions, WithSessionQuota, and WithHealthCheck.
func NewSurrogate(reg *Registry, opts ...Option) *Surrogate {
	o := defaultOptions()
	o.heap = 256 << 20
	o.monitor = false
	for _, opt := range opts {
		opt(&o)
	}
	s := &Surrogate{
		opts:     o,
		reg:      reg,
		sessions: make(map[*remote.Peer]*session),
	}
	s.idle = vm.New(reg, vm.Config{
		Role:         vm.RoleSurrogate,
		HeapCapacity: o.heap,
		CPUSpeed:     o.cpuSpeed,
		Telemetry:    o.telemetry,
		Tracer:       o.tracer,
	})
	s.idle.SetStatelessNativeLocal(o.stateless)
	s.sm = newSurrogateMetrics(o.telemetry, s)
	return s
}

// VM exposes a surrogate VM for heap statistics and clock access. With
// tenants attached it is the oldest admitted session's VM (the natural
// reading for single-tenant deployments); before any attach, the
// surrogate's own idle VM.
func (s *Surrogate) VM() *vm.VM {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sess := range s.order {
		if sess.admitted.Load() {
			return sess.vm
		}
	}
	if len(s.order) > 0 {
		return s.order[0].vm
	}
	return s.idle
}

// Heap returns surrogate-wide heap statistics: live, garbage, and object
// counts summed across every tenant session, against the surrogate's
// total heap budget.
func (s *Surrogate) Heap() vm.HeapStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.heapLocked()
}

func (s *Surrogate) heapLocked() vm.HeapStats {
	if len(s.order) == 0 {
		return s.idle.Heap()
	}
	agg := vm.HeapStats{Capacity: s.opts.heap}
	for _, sess := range s.order {
		h := sess.vm.Heap()
		agg.Live += h.Live
		agg.Garbage += h.Garbage
		agg.Collections += h.Collections
		agg.Objects += h.Objects
	}
	agg.Free = agg.Capacity - agg.Live - agg.Garbage
	if agg.Free < 0 {
		agg.Free = 0
	}
	return agg
}

// Clock returns the simulated clock of the VM that Heap and VM report on.
func (s *Surrogate) Clock() time.Duration { return s.VM().Clock() }

// Sessions returns the number of currently admitted tenant sessions.
func (s *Surrogate) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.admitted
}

// Stats returns the surrogate's session-control counters.
func (s *Surrogate) Stats() SurrogateStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SurrogateStats{
		Active:       s.admitted,
		Admitted:     s.admittedTotal,
		Rejected:     s.rejectedTotal,
		Shed:         s.shedTotal,
		Evicted:      s.evictedTotal,
		Drained:      s.drainedTotal,
		DrainAborted: s.drainAbortedTotal,
	}
}

// Healthz reports the surrogate's health: the WithHealthCheck probe's
// error while degraded, nil otherwise. Plug it into telemetry.Handler to
// serve /healthz.
func (s *Surrogate) Healthz() error {
	s.mu.Lock()
	closed := s.closed
	hc := s.opts.healthCheck
	s.mu.Unlock()
	if closed {
		return errors.New("aide: surrogate closed")
	}
	if hc != nil {
		return hc()
	}
	return nil
}

// Serve attaches one client over the given transport. It returns
// immediately; the connection is serviced by the peer's worker pool. The
// tenant starts in the lobby: its first work request (or explicit attach
// handshake) runs admission control, and a rejection is a typed wire
// error the client sees as remote.ErrAdmissionRejected or remote.ErrShed.
// A client connection that fails (transport error, timeout escalation) is
// reaped: dropped from the session registry, detached from its VM, and
// closed.
func (s *Surrogate) Serve(t remote.Transport) {
	quota := s.opts.heap
	if s.opts.sessionQuota > 0 {
		quota = s.opts.sessionQuota
	}
	sv := vm.New(s.reg, vm.Config{
		Role:         vm.RoleSurrogate,
		HeapCapacity: quota,
		CPUSpeed:     s.opts.cpuSpeed,
		Tracer:       s.opts.tracer,
	})
	sv.SetStatelessNativeLocal(s.opts.stateless)
	sess := &session{vm: sv, quota: quota, ready: make(chan struct{})}

	ro := s.opts.remoteOptions()
	ro.Gate = func(kind remote.MsgKind) error { return s.gate(sess, kind) }
	ro.SessionInfo = s.occupancy
	ro.OnDown = func(*remote.Peer, error) {
		// A failed client connection (the peer logged the cause) takes its
		// session with it: its objects are unreachable (no reattach lease).
		<-sess.ready
		s.mu.Lock()
		s.retireLocked(sess, errSessionGone, "reap client")
		s.mu.Unlock()
	}
	p := remote.NewPeer(sv, t, ro)
	// Snapshot plumbing: incoming pushes either restore a shipped session
	// image into this session's VM (the receiving end of a handoff) or
	// order a fleet-wide drain; pulls serve the speculation path a
	// consistent copy of the session heap.
	p.SetSnapshotHandler(func(method, dest string, img []byte) error {
		switch method {
		case remote.SnapRestore:
			// The image replaces the session heap wholesale, so a restore
			// runs the same admission as a first work request — the gate
			// passed the frames through without seeing the mode.
			if err := s.admit(sess); err != nil {
				return err
			}
			im, err := snapshot.Decode(img)
			if err != nil {
				return err
			}
			return snapshot.Restore(sess.vm, im)
		case remote.SnapDrain:
			// The directive's image bytes are its credential, checked
			// before anything else: an ordinary tenant connection reaches
			// this handler too, and must not be able to order a drain.
			if err := s.authorizeDrain(img); err != nil {
				return err
			}
			// The work is scoped to the directive connection's lifetime.
			_, err := s.drain(p.LifeContext(), dest, p)
			return err
		default:
			return fmt.Errorf("aide: surrogate cannot consume snapshot push %q", method)
		}
	})
	p.SetSnapshotSource(func() ([]byte, error) {
		return snapshot.Snapshot(sess.vm).Encode(), nil
	})
	s.mu.Lock()
	sess.peer = p
	closed := s.closed
	if !closed {
		s.seq++
		sess.seq = s.seq
		s.sessions[p] = sess
		s.order = append(s.order, sess)
	}
	s.mu.Unlock()
	close(sess.ready)
	if closed {
		if err := p.Close(); err != nil && s.opts.logf != nil {
			s.opts.logf("aide: serve after close: %v", err)
		}
	}
}

// errSessionGone is the sticky verdict of a session retired for any reason
// but eviction: whatever still reaches its gate is refused, not re-admitted.
var errSessionGone = errors.New("aide: session closed")

// retireLocked is the one way a session leaves the surrogate (eviction,
// completed handoff, lost connection, Close): its quota goes back to the
// ledger if, and only if, it was admitted; why becomes the sticky answer
// to anything still reaching its gate; and the first caller to find it
// filed takes it out of sessions and order and hands the connection to a
// background closer (joined by s.wg) — a peer Close must not run under
// s.mu, where its workers may be blocked in gate→admit, nor on the peer's
// own receive loop, which it joins. Once Close has begun it owns the
// teardown and no closer is spawned.
func (s *Surrogate) retireLocked(sess *session, why error, what string) {
	if sess.rejectErr == nil {
		sess.rejectErr = why
	}
	if sess.admitted.Swap(false) {
		s.admitted--
		s.committed -= sess.quota
	}
	if s.sessions[sess.peer] != sess {
		return
	}
	delete(s.sessions, sess.peer)
	for i, q := range s.order {
		if q == sess {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if s.closed {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		sess.vm.DetachPeer(sess.peer.VMIndex())
		if err := sess.peer.Close(); err != nil && s.opts.logf != nil {
			s.opts.logf("aide: surrogate %s: %v", what, err)
		}
	}()
}

// gate screens one incoming request for the session (remote.Options.Gate).
// Bookkeeping kinds always pass: probes must answer at capacity so fleet
// placement can still rank a full surrogate, distributed-GC releases must
// apply exactly once no matter the session's fate, and snapshot frames
// carry their own admission — and, for drain directives, the WithDrainKey
// authorization — inside the handler (the gate cannot see the transfer
// mode). A draining session answers every work request with the
// typed redirect; otherwise work kinds require admission, and the first
// one (or an explicit MsgAttach) runs it.
func (s *Surrogate) gate(sess *session, kind remote.MsgKind) error {
	if !sess.admitted.Load() { // an admitted session is long since ready
		<-sess.ready
	}
	switch kind {
	case remote.MsgPing, remote.MsgPong, remote.MsgInfo, remote.MsgRelease, remote.MsgReleaseBatch,
		remote.MsgSnapshot:
		return nil
	}
	if sess.draining.Load() {
		return remote.ErrDrained
	}
	if sess.admitted.Load() {
		return nil
	}
	return s.admit(sess)
}

// admit runs admission control for a lobby session. The decision is
// sticky: a rejected session answers every later request with the same
// typed error, and an admitted one never re-runs the checks. Order
// matters — degraded health sheds before the caps reject, so a degraded
// surrogate reports CodeShed even when it is also full.
func (s *Surrogate) admit(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess.rejectErr != nil {
		return sess.rejectErr
	}
	if sess.admitted.Load() {
		return nil
	}
	if s.closed {
		return errors.New("aide: surrogate closed")
	}
	if hc := s.opts.healthCheck; hc != nil {
		if herr := hc(); herr != nil {
			if s.opts.evictOnDegraded {
				// Reclaim capacity from the heaviest tenant; the
				// degraded attach is still shed — eviction relieves
				// pressure for the sessions already running.
				s.evictLocked(1)
			}
			s.shedTotal++
			s.sm.shed.Inc()
			sess.rejectErr = fmt.Errorf("%w: surrogate degraded: %v", remote.ErrShed, herr)
			return sess.rejectErr
		}
	}
	if max := s.opts.maxSessions; max > 0 && s.admitted >= max {
		s.rejectedTotal++
		s.sm.rejected.Inc()
		sess.rejectErr = fmt.Errorf("%w: %d sessions at cap %d", remote.ErrAdmissionRejected, s.admitted, max)
		return sess.rejectErr
	}
	if s.opts.sessionQuota > 0 && s.committed+sess.quota > s.opts.heap {
		s.rejectedTotal++
		s.sm.rejected.Inc()
		sess.rejectErr = fmt.Errorf("%w: committed %dB + quota %dB exceeds heap budget %dB",
			remote.ErrAdmissionRejected, s.committed, sess.quota, s.opts.heap)
		return sess.rejectErr
	}
	sess.admitted.Store(true)
	s.admitted++
	s.committed += sess.quota
	s.admittedTotal++
	s.sm.admitted.Inc()
	return nil
}

// occupancy reports surrogate-wide occupancy for info and attach replies
// (remote.Options.SessionInfo): admitted session count, free bytes out of
// the shared heap budget, and the budget itself — the fleet coordinator's
// placement inputs.
func (s *Surrogate) occupancy() (sessions, freeBytes, capacityBytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.heapLocked()
	return int64(s.admitted), h.Free, h.Capacity
}

// EvictSessions evicts up to n admitted sessions to reclaim capacity,
// heaviest live heap first (ties broken toward the newest session, so the
// longest-standing tenant of equal weight survives). Each victim's later
// requests fail with the typed eviction error and its connection closes
// asynchronously; the client sees a disconnect and fails over to local
// execution. It returns the number of sessions evicted.
func (s *Surrogate) EvictSessions(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.evictLocked(n))
}

// evictLocked implements eviction under s.mu: each victim is retired with
// the typed eviction error as its sticky verdict.
func (s *Surrogate) evictLocked(n int) []*session {
	if n <= 0 || s.closed {
		return nil
	}
	cands := make([]*session, 0, len(s.order))
	for _, sess := range s.order {
		if sess.admitted.Load() {
			cands = append(cands, sess)
		}
	}
	// Deterministic eviction order: most live bytes first, newest seq on
	// ties. Live bytes are sampled once so the sort key is stable.
	live := make(map[*session]int64, len(cands))
	for _, sess := range cands {
		live[sess] = sess.vm.Heap().Live
	}
	sort.Slice(cands, func(i, j int) bool {
		if live[cands[i]] != live[cands[j]] {
			return live[cands[i]] > live[cands[j]]
		}
		return cands[i].seq > cands[j].seq
	})
	if n > len(cands) {
		n = len(cands)
	}
	victims := cands[:n]
	for _, v := range victims {
		s.retireLocked(v, fmt.Errorf("%w: reclaiming %dB of quota", remote.ErrEvicted, v.quota), "evict session")
		s.evictedTotal++
		s.sm.evicted.Inc()
	}
	return victims
}

// Drain hands every admitted session off, live, to the surrogate at
// dest: each session is quiesced, snapshotted, and the image pushed to
// its own client with the destination address — the client dials dest,
// restores the session there, and atomically re-points its peer slot.
// The tenant observes only a bounded latency bump; calls that land
// mid-handoff are answered with the typed ErrDrained redirect and retry
// against the new home. It returns how many sessions moved. A session
// whose client cannot complete the handoff (push failure, restore
// rejected at dest) resumes in place and is counted in the returned
// error instead.
func (s *Surrogate) Drain(ctx context.Context, dest string) (int, error) {
	return s.drain(ctx, dest, nil)
}

// authorizeDrain validates a wire drain directive's credential (the
// directive frame's image bytes) against the WithDrainKey credential.
// With no key configured every wire directive is refused — local
// Surrogate.Drain remains the only way to order a drain.
func (s *Surrogate) authorizeDrain(key []byte) error {
	want := s.opts.drainKey
	if want == "" {
		return fmt.Errorf("%w: surrogate has no drain key configured", ErrDrainUnauthorized)
	}
	if subtle.ConstantTimeCompare(key, []byte(want)) != 1 {
		return fmt.Errorf("%w: drain key mismatch", ErrDrainUnauthorized)
	}
	return nil
}

// drain implements Drain. A non-nil from is the peer a wire directive
// arrived on (the fleet coordinator's connection): its own serve slot is
// discounted when quiescing its session.
func (s *Surrogate) drain(ctx context.Context, dest string, from *remote.Peer) (int, error) {
	if dest == "" {
		return 0, errors.New("aide: drain needs a destination address")
	}
	s.mu.Lock()
	cands := make([]*session, 0, len(s.order))
	for _, sess := range s.order {
		if sess.admitted.Load() && !sess.draining.Load() {
			cands = append(cands, sess)
		}
	}
	s.mu.Unlock()
	moved := 0
	var firstErr error
	for _, sess := range cands {
		allow := 0
		if sess.peer == from {
			// The drain directive occupies one serve slot on this very
			// peer; demanding zero in-flight serves would deadlock on our
			// own dispatch.
			allow = 1
		}
		if err := s.drainSession(ctx, sess, dest, allow); err != nil {
			if errors.Is(err, remote.ErrClosed) {
				// The session's own connection died mid-handoff: the client
				// left (teardown racing the drain) and OnDown retires the
				// session. Nothing is stranded, so nothing to report — but it
				// is counted, and traced as this session's failed SpanDrain.
				s.mu.Lock()
				s.drainAbortedTotal++
				s.mu.Unlock()
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("aide: drain session to %s: %w", dest, err)
			}
			continue
		}
		moved++
	}
	return moved, firstErr
}

// drainSession performs one live handoff: flip the session to draining
// (late work requests bounce with ErrDrained), wait for in-flight serves
// to finish so the snapshot is quiescent, ship the image to the client
// with the destination address, and on the client's acknowledgment
// retire the session here. The span duration is the surrogate-side
// blackout: the window in which the tenant had no serving home.
func (s *Surrogate) drainSession(ctx context.Context, sess *session, dest string, allow int) (err error) {
	if tr := s.opts.tracer; tr.Enabled() {
		sid, start := tr.NextID(), time.Now()
		defer func() {
			tr.Emit(telemetry.Span{
				ID: sid, Kind: telemetry.SpanDrain, Note: "session:" + dest,
				Peer: sess.peer.VMIndex(), Err: err != nil, Start: start, Dur: time.Since(start),
			})
		}()
	}
	sess.draining.Store(true)
	sess.peer.WaitServeIdle(allow)
	img := snapshot.Snapshot(sess.vm).Encode()
	if err := sess.peer.PushSnapshot(ctx, remote.SnapHandoff, dest, img); err != nil {
		// The client could not re-home the session; let it keep running
		// here rather than strand the tenant.
		sess.draining.Store(false)
		return err
	}
	// The client restored at dest and swapped its slot; retire the
	// session. The gate keeps bouncing stragglers via the captured sess.
	s.mu.Lock()
	s.retireLocked(sess, errSessionGone, "drain session")
	s.drainedTotal++
	s.sm.drained.Inc()
	s.mu.Unlock()
	return nil
}

// ListenAndServe accepts client connections on addr until Close. It
// returns the bound address (useful with ":0") once listening.
func (s *Surrogate) ListenAndServe(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("aide: surrogate listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("aide: surrogate closed")
	}
	if s.ln != nil {
		s.mu.Unlock()
		_ = ln.Close()
		return "", errors.New("aide: surrogate already listening")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()

	go func() {
		defer s.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed
			}
			s.Serve(remote.NewConnTransport(conn))
		}
	}()
	return ln.Addr().String(), nil
}

// Close stops listening and closes every tenant session.
func (s *Surrogate) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.ln = nil
	sessions := append([]*session(nil), s.order...)
	for _, sess := range sessions {
		s.retireLocked(sess, errSessionGone, "close")
	}
	s.mu.Unlock()
	var firstErr error
	if ln != nil {
		if err := ln.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.wg.Wait()
	for _, sess := range sessions {
		if err := sess.peer.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NewLocalPair wires a client and a surrogate together in process over an
// in-memory transport: the quickest way to stand up a complete platform.
// Close the client (and the surrogate) when done.
func NewLocalPair(reg *Registry, clientOpts, surrogateOpts []Option) (*Client, *Surrogate, error) {
	c := NewClient(reg, clientOpts...)
	s := NewSurrogate(reg, surrogateOpts...)
	ct, st := remote.NewChannelPair()
	s.Serve(st)
	if err := c.Attach(ct); err != nil {
		_ = s.Close()
		_ = c.Close()
		return nil, nil, err
	}
	return c, s, nil
}
