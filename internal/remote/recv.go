package remote

import (
	"fmt"
	"sync"

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

// dedupeWindow remembers the last N request IDs seen from the peer so a
// duplicated frame (retried send that did arrive, duplication fault) is
// executed at most once. Entries evict FIFO.
type dedupeWindow struct {
	mu   sync.Mutex
	seen map[uint64]struct{}
	ring []uint64
	next int
}

func newDedupeWindow(n int) *dedupeWindow {
	return &dedupeWindow{seen: make(map[uint64]struct{}, n), ring: make([]uint64, n)}
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
	d.next = (d.next + 1) % len(d.ring)
	d.seen[id] = struct{}{}
	return true
}

func (p *Peer) recvLoop() {
	defer p.wg.Done()
	defer close(p.requests)
	for {
		m, err := p.transport.Recv()
		if err != nil {
			// A Recv error with the peer not yet closed is an involuntary
			// loss: wrap it so failErr callers (and the VM's failover
			// path) can recognize the disconnect. Our own Close fails the
			// peer with plain ErrClosed before closing the transport, so
			// graceful teardown never takes this branch first.
			p.fail(fmt.Errorf("%w: %v", ErrDisconnected, err))
			return
		}
		p.m.bytesReceived.Add(m.wireBytes())
		if m.Reply {
			if ch, ok := p.shardFor(m.ID).take(m.ID); ok {
				ch <- m
			} else {
				// No waiter: a late reply after a failed send, or a
				// peer protocol bug. Count every one; record and log the
				// first only — the guard is per peer, not per shard, so
				// orphans spread across shards still log once.
				p.m.orphanReplies.Inc()
				if p.tracer.Enabled() {
					p.tracer.Emit(telemetry.Span{Kind: telemetry.SpanOrphan, Peer: p.idx, Note: m.Kind.String(), N: int64(m.ID)})
				}
				p.orphanOnce.Do(func() {
					e := fmt.Errorf("remote: orphan %s reply id=%d (no pending waiter)", m.Kind, m.ID)
					p.orphanE.Store(e)
					p.logfSafe("%v (suppressing further orphan-reply logs for this peer)", e)
				})
			}
			continue
		}
		// At-most-once execution: a request ID seen before (duplication
		// fault, or a send retry whose first copy did arrive) is dropped
		// before it reaches the worker pool.
		if p.dedupe != nil && m.ID != 0 && !p.dedupe.firstTime(m.ID) {
			p.m.duplicatesDropped.Inc()
			continue
		}
		// Forward even when the peer is closing: Close waits for the
		// workers, so requests already on the wire (Close-time release
		// flushes in particular) drain instead of silently dropping. The
		// loop exits when Recv reports the transport closed and empty.
		p.requests <- m
	}
}

func (p *Peer) worker() {
	defer p.wg.Done()
	for m := range p.requests {
		p.serve(m)
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
			if p.closed.Load() {
				return
			}
			p.m.bytesSent.Add(reply.wireBytes())
			if err := p.transport.Send(reply); err != nil {
				// The connection is gone; recvLoop will observe it.
				return
			}
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
		for _, id := range m.IDs {
			p.local.ReleaseExport(id)
		}
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
	case MsgFieldFetch:
		names, vals, moved, err := p.local.ServeFetchFields(m.Obj, m.Classes)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		wvals, err := p.local.EncodeOutgoingAll(p.idx, vals)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.Classes = names
		reply.Args = wvals
		reply.MovedBytes = moved
	case MsgMigrate:
		ids, err := p.local.AdoptMigration(p.idx, m.Batch)
		if err != nil {
			reply.Err = err.Error()
			break
		}
		reply.IDs = ids
		p.m.objectsMigrated.Add(int64(len(m.Batch)))
		if p.tracer.Enabled() {
			p.tracer.Emit(telemetry.Span{Kind: telemetry.SpanMigration, Note: "adopt", Peer: p.idx, N: int64(len(m.Batch))})
		}
	case MsgSnapshot:
		p.serveSnapshot(m, reply)
	case MsgSnapshotAck:
		p.serveSnapshotAck()
	default:
		reply.Err = fmt.Sprintf("unknown request kind %d", m.Kind)
	}

	if p.closed.Load() {
		return
	}
	p.m.bytesSent.Add(reply.wireBytes())
	if err := p.transport.Send(reply); err != nil {
		// The connection is gone; recvLoop will observe and shut down.
		return
	}
}
