package remote

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aide/internal/telemetry"
)

// pendingShards sizes the pending-reply table. Power of two, so the
// shard index is a mask of the request ID; IDs are sequential, so
// consecutive in-flight calls land on distinct shards.
const pendingShards = 16

// pendingShard is one lock-striped slice of the pending-reply table.
type pendingShard struct {
	mu sync.Mutex
	m  map[uint64]chan *Message
}

func (s *pendingShard) put(id uint64, ch chan *Message) {
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[uint64]chan *Message)
	}
	s.m[id] = ch
	s.mu.Unlock()
}

// take removes and returns the waiter for id, if any.
func (s *pendingShard) take(id uint64) (chan *Message, bool) {
	s.mu.Lock()
	ch, ok := s.m[id]
	if ok {
		delete(s.m, id)
	}
	s.mu.Unlock()
	return ch, ok
}

// sweep closes and removes every waiter (connection teardown).
func (s *pendingShard) sweep() {
	s.mu.Lock()
	for id, ch := range s.m {
		close(ch)
		delete(s.m, id)
	}
	s.mu.Unlock()
}

const dedupeSlots = 1024

// dedupeWindow remembers the last dedupeSlots request IDs seen from the
// peer so a duplicated frame (retried send that did arrive, duplication
// fault) is executed at most once. Entries evict FIFO.
type dedupeWindow struct {
	mu   sync.Mutex
	seen map[uint64]struct{}
	ring [dedupeSlots]uint64
	next int
}

// firstTime records id and reports whether this is its first appearance
// within the window.
func (d *dedupeWindow) firstTime(id uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.seen[id]; dup {
		return false
	}
	if old := d.ring[d.next]; old != 0 {
		delete(d.seen, old)
	}
	d.ring[d.next] = id
	d.next = (d.next + 1) % dedupeSlots
	d.seen[id] = struct{}{}
	return true
}

// The resume timer's first period and its longest: a look that finds
// frames moved doubles the period, a quiet one resets it, so a frame
// nobody is waiting for (a ping, a release batch, a drain directive, a
// second thread's request behind a long in-place serve) is read within
// two periods — 2 ms after a short burst, 128 ms at most. The period must
// outlast the gaps between one thread's calls, and looks must be rare:
// each timer expiry wakes the second OS thread. Two callers on one
// connection complete 54-56 k calls/s with a look every 1 ms, 63 k at
// 10 ms, 66.5 k with this back-off, 65.5-67.9 k with no timer; live
// JavaNote evicts the receiver 3-6 times at a fixed 1 ms, once with
// back-off (DESIGN.md §5).
const (
	lazyResume    = time.Millisecond
	lazyResumeMax = 64 * time.Millisecond
)

// aloneCalls is how many calls in a row must have begun with no other call
// waiting before a caller evicts the background receiver. One look is not
// evidence — of two threads in a closed loop each is between calls a third
// of the time — and evicted the shared receiver 1,900 times a second in the
// two-caller run above; eight in a row, 55-80 times.
const aloneCalls = 8

// spillLimit caps the goroutines serving requests that found every worker
// busy; past it the reader serves the request itself, and a far side that
// deep in unanswered requests is throttled by our not reading.
const spillLimit = 256

// readOwner is the right to call transport.Recv, passed between goroutines
// so that whoever waits for a frame reads it. The right is a token: in tok
// when nobody reads, otherwise held by exactly one goroutine, a background
// receiver (recvLoop) or a caller inside await.
//
//   - Only the holder calls Recv, dispatches to the worker queue or ends
//     the stream.
//   - The holder releases before it serves a request in place (the body may
//     call back and must be able to read) or returns to its caller, and
//     never holds across a Send: two readers stuck writing to each other
//     would deadlock.
//   - A background receiver yields only when asked (wanters > 0), at a
//     frame boundary, and is restarted only once the connection has been
//     quiet for a timer period: between one thread's back-to-back calls
//     the token lies in tok, and taking it wakes nobody.
//   - Every waiting caller selects on tok, so a reply is never stranded
//     behind a reader that left; only unsolicited frames wait for resume.
//   - The holder that sees the transport end keeps the token for good
//     (retired closes): nothing is routed after the worker queue closes.
//
// Over a transport without RecvInterrupter (Peer.intr nil) the first
// receiver never releases: callers wait on their channels and the pool
// serves everything, the dedicated receive loop this replaced.
type readOwner struct {
	tok     chan struct{}
	retired chan struct{}

	bg      atomic.Bool  // the holder is a background receiver
	wanters atomic.Int32 // callers that asked it to yield and still wait

	// served: a background receiver has routed a request since one was last
	// started for that reason. This is a serving side, whose next request
	// must not wait for resume (doneEvicting). inPlace is set while a
	// background receiver serves a request in place (servesInPlace).
	served  atomic.Bool
	inPlace atomic.Bool

	// waiting counts calls in await, parked or reading (not one suspended
	// while its goroutine serves a callback); alone, up to aloneCalls, the
	// calls in a row that began with none.
	waiting atomic.Int32
	alone   atomic.Int32

	// The timer runs Peer.resume after period (ns) while armed; seen is
	// bytesReceived at its last look.
	armed  atomic.Bool
	period atomic.Int64
	seen   atomic.Int64
	timer  *time.Timer
}

func (o *readOwner) tryAcquire() bool {
	select {
	case <-o.tok:
		return true
	default:
		return false
	}
}

// release puts the token back (straight to a waiting caller, if there is
// one) and makes sure the resume timer is counting.
func (o *readOwner) release() {
	o.tok <- struct{}{}
	o.arm()
}

func (o *readOwner) arm() {
	if o.armed.CompareAndSwap(false, true) {
		o.timer.Reset(time.Duration(o.period.Load()))
	}
}

// resume is the timer's look. A connection quiet for a whole period whose
// token lies unclaimed is unread — its last reader a caller that has not
// called again, or a receiver still serving in place — and gets a
// background receiver. A quiet one that somebody holds needs nothing until
// the next release re-arms.
func (p *Peer) resume() {
	o := &p.rd
	o.armed.Store(false)
	if p.closed.Load() {
		return // Close sees the stream to its end itself
	}
	if now := p.m.bytesReceived.Value(); o.seen.Swap(now) != now {
		o.period.Store(min(2*o.period.Load(), int64(lazyResumeMax)))
		o.arm()
		return
	}
	o.period.Store(int64(lazyResume))
	if !o.bg.Load() && o.tryAcquire() {
		p.startReceiver()
	}
}

// startReceiver passes the token its caller holds to a new background
// receiver. Holding it means the stream has not ended, so the workers are
// still counted in wg and Add cannot race a Wait at zero.
func (p *Peer) startReceiver() {
	p.rd.bg.Store(true)
	p.wg.Add(1)
	go p.recvLoop()
}

// interruptReader wakes whichever goroutine is blocked in Recv to look at
// why: a deadline, a cancelled context, a closed peer, a caller that wants
// to read. These are states, not events, so an interrupt that lands on the
// wrong reader or on none loses nothing.
func (p *Peer) interruptReader() {
	if p.intr != nil {
		p.intr.InterruptRecv()
	}
}

// askToYield is a caller announcing, before it sends, that it will read its
// own reply: a background receiver blocked in Recv gives way — if this
// looks like the connection's only thread, and no worker or spill is busy:
// the caller may be that worker in a nested call (MsgRecall → Offload), and
// evicting the serving side's receiver would leave the far side's next
// request unread until resume. It reports whether wanters was raised.
func (p *Peer) askToYield() bool {
	o := &p.rd
	if p.intr == nil {
		return false
	}
	if o.waiting.Load() > 0 {
		o.alone.Store(0)
		return false
	}
	if o.alone.Load() < aloneCalls && o.alone.Add(1) < aloneCalls {
		return false
	}
	if !o.bg.Load() || int(p.free.Load()) < cap(p.requests) || p.spilled.Load() > 0 {
		return false
	}
	o.wanters.Add(1)
	p.intr.InterruptRecv()
	return true
}

// doneEvicting ends a call that asked the receiver to yield. On a serving
// side (a health probe, a handoff push: the far side's next request is not
// nested in any call of ours) the token, if it now lies unclaimed, goes to
// a new receiver at once. Lowering wanters before looking, against the
// receiver's look after releasing, leaves no order in which both miss.
func (p *Peer) doneEvicting() {
	o := &p.rd
	o.wanters.Add(-1)
	if o.served.Load() && o.tryAcquire() {
		o.served.Store(false)
		p.startReceiver()
	}
}

// recvLoop is a background receiver. It starts holding the token and reads
// until a caller wants to, until it loses the token while serving in
// place, or until the stream ends; resume starts the next one.
func (p *Peer) recvLoop() {
	defer p.wg.Done()
	o := &p.rd
	for look := true; ; {
		if look && o.wanters.Load() > 0 && !p.closed.Load() {
			o.bg.Store(false)
			o.release()
			if !p.reclaim() {
				return
			}
		}
		m, err := p.transport.Recv()
		if look = err == ErrRecvInterrupted; look {
			continue
		}
		if err != nil {
			p.endStream(err)
			return
		}
		if _, held := p.route(m, 0); !held && !p.reclaim() {
			return
		}
	}
}

// reclaim is a background receiver that let go of the token — asked to, or
// to serve in place — taking it back unless a caller wants it or has it
// (or a receiver resume started behind a long serve). A caller that asked
// and then got its reply from this receiver has left: nothing to yield to.
func (p *Peer) reclaim() bool {
	o := &p.rd
	if o.wanters.Load() > 0 {
		p.m.readerYields.Inc()
		return false
	}
	if !o.tryAcquire() {
		return false
	}
	o.bg.Store(true)
	return true
}

// endStream is the token's holder seeing the transport end. A Recv error
// with the peer not yet closed is an involuntary loss: wrap it so failErr
// callers (and the VM's failover path) can recognize the disconnect. Our
// own Close fails the peer with plain ErrClosed before closing the
// transport, so graceful teardown never takes this branch first.
func (p *Peer) endStream(err error) {
	p.fail(fmt.Errorf("%w: %v", ErrDisconnected, err))
	p.rd.timer.Stop()
	close(p.requests)
	close(p.rd.retired)
}

// How a wait in await ended.
const (
	waitReplied  = iota // a reply, or ok=false: fail() swept the waiter
	waitExpired         // CallTimeout
	waitCanceled        // ctx
)

// await is how every call waits: for its reply on ch, for the token, for
// its deadline (expired closes) or for ctx, whichever comes first. With the
// token it reads and routes frames itself until its own reply comes off the
// wire. It holds no token when it returns.
func (p *Peer) await(ctx context.Context, id uint64, ch chan *Message, expired <-chan struct{}) (reply *Message, ok bool, end int) {
	o := &p.rd
	o.waiting.Add(1)
	var unhook func() bool
	for end = -1; end < 0; {
		if !o.tryAcquire() {
			select {
			case reply, ok = <-ch:
				end = waitReplied
			case <-expired:
				end = waitExpired
			case <-ctx.Done():
				end = waitCanceled
			case <-o.tok:
			}
			if end >= 0 {
				break
			}
		}
		if done := ctx.Done(); unhook == nil && done != nil && done != p.stop {
			// A reader blocked in Recv cannot select on ctx; for the
			// peer's own lifetime context fail() interrupts.
			unhook = context.AfterFunc(ctx, p.interruptReader)
		}
		reply, ok, end = p.readFor(ctx, id, ch, expired)
	}
	if unhook != nil {
		unhook()
	}
	o.waiting.Add(-1)
	return reply, ok, end
}

// readFor is a caller reading for itself: it holds the token on entry and
// not on return, with end < 0 if the wait is not over (it served a request
// in place). What can end the wait is looked at on taking the token and
// after each interrupt — every such event raises one — not per frame.
func (p *Peer) readFor(ctx context.Context, id uint64, ch chan *Message, expired <-chan struct{}) (reply *Message, ok bool, end int) {
	o := &p.rd
	for look := true; ; {
		if look {
			end = -1
			select {
			case reply, ok = <-ch: // routed by the reader before us, or swept
				end = waitReplied
			case <-expired:
				end = waitExpired
			case <-ctx.Done():
				end = waitCanceled
			default:
			}
			if end >= 0 {
				o.release()
				return reply, ok, end
			}
		}
		m, err := p.transport.Recv()
		if look = err == ErrRecvInterrupted; look {
			continue
		}
		if err != nil {
			p.endStream(err) // sweeps this call's waiter with the rest
			return nil, false, waitReplied
		}
		own, held := p.route(m, id)
		switch {
		case own == nil && held:
		case own == nil:
			return nil, false, -1
		case o.waiting.Load() > 1:
			// Several threads share the connection: a receiver that parks
			// the moment it has woken one of them serves them better than
			// passing the token round, where the waker runs on while the
			// woken waits for a processor (66 k against 62 k calls/s).
			p.startReceiver()
			return own, true, waitReplied
		default:
			o.release()
			return own, true, waitReplied
		}
	}
}

// route disposes of one frame, on whichever goroutine read it; self is the
// request ID that goroutine waits on, 0 for a background receiver. It
// returns the caller's own reply if m is that, and whether the token is
// still held: a request served in place is served with it released.
func (p *Peer) route(m *Message, self uint64) (own *Message, held bool) {
	p.m.bytesReceived.Add(m.Wire)
	if m.Reply {
		ch, ok := p.shardFor(m.ID).take(m.ID)
		switch {
		case !ok:
			// No waiter: a late reply after a failed send or an abandoned
			// call, or a peer protocol bug. Count every one; record and
			// log the first only — the guard is per peer, not per shard,
			// so orphans spread across shards still log once.
			p.m.orphanReplies.Inc()
			if p.tracer.Enabled() {
				p.tracer.Emit(telemetry.Span{Kind: telemetry.SpanOrphan, Peer: p.idx, Note: m.Kind.String(), N: int64(m.ID)})
			}
			p.orphanOnce.Do(func() {
				e := fmt.Errorf("remote: orphan %s reply id=%d (no pending waiter)", m.Kind, m.ID)
				p.orphanE.Store(e)
				p.logfSafe("%v (suppressing further orphan-reply logs for this peer)", e)
			})
		case m.ID == self:
			p.m.selfReads.Inc()
			return m, true
		default:
			ch <- m
		}
		return nil, true
	}
	// At-most-once execution: a request ID seen before (duplication
	// fault, or a send retry whose first copy did arrive) is dropped
	// before it is served.
	if m.ID != 0 && !p.dedupe.firstTime(m.ID) {
		p.m.duplicatesDropped.Inc()
		return nil, true
	}
	// Requests are served even when the peer is closing: Close waits for
	// the stream to end and for the workers, so what is already on the
	// wire (Close-time release flushes in particular) is applied.
	if self == 0 && !p.rd.served.Load() {
		p.rd.served.Store(true)
	}
	if !p.servesInPlace(m.Kind, self == 0) {
		p.dispatch(m)
		return nil, true
	}
	if self == 0 {
		p.rd.bg.Store(false)
	} else {
		p.rd.waiting.Add(-1)
	}
	p.rd.release()
	p.m.inlineServes.Inc()
	p.serve(m)
	if self == 0 {
		p.rd.inPlace.Store(false)
	} else {
		p.rd.waiting.Add(1)
	}
	return nil, false
}

// servesInPlace decides, from the frame's kind alone, whether the goroutine
// that read a request serves it. The data path is: invocations, pipelined
// batches of them, field and static access block on nothing but the wire
// (a callback, which the serving goroutine reads for itself — the paper's
// thread that "is not migrated"; nesting costs stack, not workers); so are
// the kinds that cannot block at all, pings and releases.
// The rest wait on something else or outlive their frame (migrate adopts a
// heap's worth of objects, recall runs a whole offload, snapshot pushes end
// in a handler that dials another surrogate, attach and info run the
// surrogate-wide occupancy hook) and go to the pool. A background receiver
// serves one request at a time: one that arrives while another is still
// being served is a second thread's, read by the receiver resume started
// behind the long serve, and goes to the pool.
func (p *Peer) servesInPlace(k MsgKind, background bool) bool {
	if p.intr == nil {
		return false // a dedicated receiver that stops to serve reads nothing meanwhile
	}
	switch k {
	case MsgInvoke, MsgNativeInvoke, MsgGetField, MsgSetField, MsgGetStatic, MsgSetStatic,
		MsgInvokeBatch, MsgPing, MsgRelease, MsgReleaseBatch:
		return !background || p.rd.inPlace.CompareAndSwap(false, true)
	}
	return false
}

// dispatch hands a request to the worker pool without blocking the reader:
// it is queued only against a worker known to be idle (free counts them;
// the queue is as deep as the pool, so the send cannot block) and otherwise
// served on a goroutine of its own. Parked behind busy workers it would
// deadlock a recursion deeper than the pool — every worker waiting, in a
// nested call, for the request stuck in the queue.
func (p *Peer) dispatch(m *Message) {
	if p.free.Add(-1) >= 0 {
		p.requests <- m
		return
	}
	p.free.Add(1)
	if p.spilled.Add(1) > spillLimit {
		p.serve(m)
		p.spilled.Add(-1)
		return
	}
	p.m.queueSpills.Inc()
	p.wg.Add(1) // by the token's holder: see startReceiver
	go func() {
		defer p.wg.Done()
		p.serve(m)
		p.spilled.Add(-1)
	}()
}

func (p *Peer) worker() {
	defer p.wg.Done()
	for m := range p.requests {
		p.serve(m)
		p.free.Add(1)
	}
}

// sendReply writes a served request's reply from the goroutine that served
// it.
func (p *Peer) sendReply(reply *Message) {
	if p.closed.Load() {
		return
	}
	if err := p.send(reply); err != nil {
		// The connection is gone; whoever reads it will observe that.
		return
	}
}

// serve executes one incoming request and replies.
func (p *Peer) serve(m *Message) {
	p.m.requestsServed.Inc()
	p.serveMu.Lock()
	p.serveN++
	p.serveMu.Unlock()
	defer func() {
		p.serveMu.Lock()
		p.serveN--
		p.serveMu.Unlock()
		p.serveCond.Broadcast()
	}()

	reply := &Message{ID: m.ID, Reply: true, Kind: m.Kind}
	if p.gate != nil {
		if gerr := p.gate(m.Kind); gerr != nil {
			switch m.Kind {
			case MsgRelease, MsgReleaseBatch:
				// One-way: there is no reply to carry the rejection, and
				// dropping a decref would leak the export ledger — gates
				// should always admit these; a misconfigured gate drops
				// them silently rather than corrupting the pending table.
				return
			}
			reply.Err = gerr.Error()
			reply.ErrCode = uint8(CodeOf(gerr))
			p.sendReply(reply)
			return
		}
	}
	switch m.Kind {
	case MsgRelease:
		p.m.releasesReceived.Inc()
		p.local.ReleaseExport(m.Obj)
		return // one-way
	case MsgReleaseBatch:
		p.m.releasesReceived.Add(int64(len(m.IDs)))
		p.local.ReleaseExport(m.IDs...)
		return // one-way
	case MsgPing:
		// A pong reply carries no payload; the distinct kind lets the
		// prober (and wire traces) tell probe answers apart.
		reply.Kind = MsgPong
	case MsgInfo, MsgAttach:
		// MsgAttach is MsgInfo plus admission: the gate above has already
		// admitted (or rejected) the session by the time dispatch runs, so
		// the reply only reports occupancy. With a SessionInfo hook the
		// payload covers the whole surrogate, not this one session's VM.
		h := p.local.Heap()
		reply.FreeBytes = h.Free
		reply.CapacityBytes = h.Capacity
		reply.CPUSpeed = p.local.CPUSpeed()
		if p.sessionInfo != nil {
			reply.Sessions, reply.FreeBytes, reply.CapacityBytes = p.sessionInfo()
		}
	case MsgRecall:
		// Push our objects of the named classes back to the requester:
		// exactly an Offload in the opposite direction. Offload blocks on
		// the requester adopting the batch; its recv loop services that
		// while it waits for this reply.
		n, bytes, err := p.Offload(m.Classes)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.Objects = int64(n)
		reply.MovedBytes = bytes
		// The recalled objects are stubs here now, and each pins its
		// requester-side copy. Once the reply is out, one collection
		// frees the stubs nothing references and releases their pins,
		// shipped now: this side may not call the requester again soon.
		defer func() {
			p.local.Collect()
			p.FlushReleases()
		}()
	case MsgInvoke:
		args, err := p.local.DecodeIncomingAll(p.idx, m.Args)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		ret, elapsed, err := p.local.ServeInvoke(m.Obj, m.Method, args)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.ElapsedNanos = int64(elapsed)
		if reply.Ret, err = p.local.EncodeOutgoing(p.idx, ret); err != nil {
			reply.Err = err.Error()
		}
	case MsgNativeInvoke:
		args, err := p.local.DecodeIncomingAll(p.idx, m.Args)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		ret, elapsed, err := p.local.ServeNative(m.Class, m.Method, m.Obj, args)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.ElapsedNanos = int64(elapsed)
		if reply.Ret, err = p.local.EncodeOutgoing(p.idx, ret); err != nil {
			reply.Err = err.Error()
		}
	case MsgGetField:
		ret, err := p.local.ServeGetField(m.Obj, m.Field)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		if reply.Ret, err = p.local.EncodeOutgoing(p.idx, ret); err != nil {
			reply.Err = err.Error()
		}
	case MsgSetField:
		if len(m.Args) != 1 {
			reply.Err = "set-field expects one value"
			break
		}
		val, err := p.local.DecodeIncoming(p.idx, m.Args[0])
		if err != nil {
			reply.Err = err.Error()
			break
		}
		if err := p.local.ServeSetField(m.Obj, m.Field, val); err != nil {
			reply.Err = err.Error()
		}
	case MsgGetStatic:
		ret, err := p.local.ServeGetStatic(m.Class, m.Field)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		if reply.Ret, err = p.local.EncodeOutgoing(p.idx, ret); err != nil {
			reply.Err = err.Error()
		}
	case MsgSetStatic:
		if len(m.Args) != 1 {
			reply.Err = "set-static expects one value"
			break
		}
		val, err := p.local.DecodeIncoming(p.idx, m.Args[0])
		if err != nil {
			reply.Err = err.Error()
			break
		}
		if err := p.local.ServeSetStatic(m.Class, m.Field, val); err != nil {
			reply.Err = err.Error()
		}
	case MsgInvokeBatch:
		rets, elapsed, errIdx, err := p.servePipeline(m.Calls)
		reply.ElapsedNanos = int64(elapsed)
		reply.Rets = rets
		if err != nil {
			reply.Err = err.Error()
			// 1-based on the wire; errIdx -1 (not attributable) maps to 0.
			reply.ErrIndex = int32(errIdx) + 1
		}
	case MsgMigrate:
		ids, err := p.local.AdoptMigration(p.idx, m.Batch)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.IDs = ids
		p.m.objectsMigrated.Add(int64(len(ids)))
		if p.tracer.Enabled() {
			p.tracer.Emit(telemetry.Span{Kind: telemetry.SpanMigration, Note: "adopt", Peer: p.idx, N: int64(len(ids))})
		}
	case MsgSnapshot:
		p.serveSnapshot(m, reply)
	default:
		reply.Err = fmt.Sprintf("unknown request kind %d", m.Kind)
	}

	p.sendReply(reply)
}
