package remote

import (
	"context"
	"fmt"

	"aide/internal/telemetry"
)

// snapshotChunk is the default cap on Blob bytes per MsgSnapshot frame:
// 1 MiB keeps every chunk far under the maxFrame guard while still
// amortizing the per-frame round trip over a useful payload.
// Options.SnapshotChunkSize overrides it (tests shrink it to exercise
// multi-chunk transfers with small images).
const snapshotChunk = 1 << 20

// Snapshot transfer modes, carried in Message.Method. A push
// (SnapRestore, SnapHandoff, SnapDrain) streams chunks at the receiver,
// whose handler consumes the assembled image; a pull (SnapPull) asks
// the receiver to chunk its own image back.
const (
	// SnapRestore replaces the receiving session VM's heap with the image.
	SnapRestore = "restore"
	// SnapHandoff announces a drain: the image is the sender's copy of
	// the receiver's session, and Class names the destination surrogate
	// the receiver should re-home it to.
	SnapHandoff = "handoff"
	// SnapDrain orders the receiving surrogate to drain toward the
	// destination named in Class. No session image crosses: Blob carries
	// the sender's drain-key credential, which the receiver validates
	// before acting.
	SnapDrain = "drain"
	// SnapPull requests chunk Seq of the receiver's own snapshot; the
	// reply carries Blob and Total.
	SnapPull = "pull"
)

// SetSnapshotHandler installs the consumer for fully assembled incoming
// snapshot pushes. The handler runs on a worker goroutine with the push
// mode (SnapRestore, SnapHandoff, SnapDrain), the destination address
// from the frame's Class field, and the assembled image bytes; its
// error (text plus typed code via CodeOf) fails the final chunk's reply.
func (p *Peer) SetSnapshotHandler(h func(method, dest string, img []byte) error) {
	p.snapMu.Lock()
	p.snapHandler = h
	p.snapMu.Unlock()
}

// SetSnapshotSource installs the capture function serving PullSnapshot
// requests from the other side. It runs on a worker goroutine; its
// result is cached until the puller acks (MsgSnapshotAck), so every
// chunk of one pull reads the same consistent image.
func (p *Peer) SetSnapshotSource(src func() ([]byte, error)) {
	p.snapMu.Lock()
	p.snapSource = src
	p.snapMu.Unlock()
}

// WaitServeIdle blocks until no more than allow serve() dispatches are
// in flight, or the peer closes. A draining surrogate quiesces a
// session peer with allow=0 before snapshotting it; a handler that
// itself runs inside a serve dispatch of the same peer passes allow=1
// to discount its own slot.
func (p *Peer) WaitServeIdle(allow int) {
	p.serveMu.Lock()
	defer p.serveMu.Unlock()
	for p.serveN > allow && !p.closed.Load() {
		p.serveCond.Wait()
	}
}

// PushSnapshot streams img to the peer as a sequence of MsgSnapshot
// frames of at most the configured chunk size, awaiting each chunk's
// reply before sending the next (so the receiver assembles strictly in
// order). method is the push mode (SnapRestore, SnapHandoff, SnapDrain)
// and dest rides in each frame's Class field. The final chunk's reply
// carries the receiving handler's verdict: a nil return means the
// handler consumed the image.
func (p *Peer) PushSnapshot(ctx context.Context, method, dest string, img []byte) error {
	return p.span(ctx, telemetry.SpanSnapshot, "push:"+method, func(ctx context.Context, s *telemetry.Span) error {
		s.Bytes = int64(len(img))
		return p.pushSnapshot(ctx, method, dest, img)
	})
}

func (p *Peer) pushSnapshot(ctx context.Context, method, dest string, img []byte) error {
	total := (len(img) + p.chunkSize - 1) / p.chunkSize
	if total == 0 {
		total = 1 // an empty image (drain directive) still crosses as one frame
	}
	for seq := 1; seq <= total; seq++ {
		lo := (seq - 1) * p.chunkSize
		hi := lo + p.chunkSize
		if hi > len(img) {
			hi = len(img)
		}
		req := &Message{
			Kind: MsgSnapshot, Method: method, Class: dest,
			Seq: int64(seq), Total: int64(total), Blob: img[lo:hi],
		}
		if _, err := p.Call(ctx, req); err != nil {
			return fmt.Errorf("remote: snapshot push (%s chunk %d/%d): %w", method, seq, total, err)
		}
		p.m.snapshotChunks.Inc()
		p.m.snapshotBytes.Add(int64(hi - lo))
	}
	return nil
}

// PullSnapshot fetches the peer's snapshot image (captured by its
// SetSnapshotSource hook) chunk by chunk and acknowledges receipt so
// the peer releases its cached copy. The speculation path uses this to
// seed a local shadow clone from the surrogate's authoritative state.
func (p *Peer) PullSnapshot(ctx context.Context) (img []byte, err error) {
	err = p.span(ctx, telemetry.SpanSnapshot, "pull", func(ctx context.Context, s *telemetry.Span) (err error) {
		img, err = p.pullSnapshot(ctx)
		s.Bytes = int64(len(img))
		return err
	})
	return img, err
}

func (p *Peer) pullSnapshot(ctx context.Context) ([]byte, error) {
	var img []byte
	for seq := int64(1); ; seq++ {
		reply, err := p.Call(ctx, &Message{Kind: MsgSnapshot, Method: SnapPull, Seq: seq})
		if err != nil {
			return nil, fmt.Errorf("remote: snapshot pull chunk %d: %w", seq, err)
		}
		if reply.Seq != seq || reply.Total < seq {
			return nil, fmt.Errorf("remote: snapshot pull: peer answered chunk %d/%d to a request for chunk %d", reply.Seq, reply.Total, seq)
		}
		if len(img)+len(reply.Blob) > p.maxImage {
			p.ackPull(ctx) // reset the exchange: the peer need not keep serving this image
			return nil, fmt.Errorf("remote: snapshot pull: chunk %d/%d takes the image past the %d-byte limit", seq, reply.Total, p.maxImage)
		}
		img = append(img, reply.Blob...)
		p.m.snapshotChunks.Inc()
		p.m.snapshotBytes.Add(int64(len(reply.Blob)))
		if seq == reply.Total {
			break
		}
	}
	p.ackPull(ctx)
	return img, nil
}

// ackPull releases the peer's cached capture. A lost ack is harmless: the
// cache is overwritten by the next pull's fresh capture.
func (p *Peer) ackPull(ctx context.Context) {
	if _, err := p.Call(ctx, &Message{Kind: MsgSnapshotAck}); err != nil {
		p.logfSafe("remote: snapshot pull: ack failed (peer cache retained): %v", err)
	}
}

// DrainRemote orders the serving side to hand its live sessions off to
// the surrogate at dest and blocks until the drain completes (the
// directive's reply is the receiving handler's verdict). The fleet
// coordinator sends this over an ordinary client connection; the
// surrogate's lobby gate admits the directive without a session, so key
// — carried as the directive's image bytes — must prove the sender's
// authority (the surrogate checks it against its configured drain key
// and refuses the directive otherwise).
func (p *Peer) DrainRemote(ctx context.Context, dest string, key []byte) error {
	return p.span(ctx, telemetry.SpanDrain, "directive:"+dest, func(ctx context.Context, _ *telemetry.Span) error {
		return p.pushSnapshot(ctx, SnapDrain, dest, key)
	})
}

// serveSnapshot handles one incoming MsgSnapshot frame: a pull request
// answers with a chunk of this side's own captured image; a push chunk
// joins the in-order assembly buffer, and the final chunk hands the
// assembled image to the installed handler, whose error becomes the
// reply's.
func (p *Peer) serveSnapshot(m *Message, reply *Message) {
	if m.Method == SnapPull {
		p.servePull(m, reply)
		return
	}
	if m.Seq < 1 || m.Total < 1 || m.Seq > m.Total {
		reply.Err = fmt.Sprintf("snapshot chunk %d/%d out of range", m.Seq, m.Total)
		return
	}
	p.snapMu.Lock()
	if m.Seq == 1 {
		// First chunk (re)starts assembly, discarding any stale partial
		// transfer a failed earlier push left behind.
		p.snapBuf, p.snapSeq = nil, 0
	}
	switch {
	case m.Seq != p.snapSeq+1:
		seen := p.snapSeq
		p.snapMu.Unlock()
		reply.Err = fmt.Sprintf("snapshot chunk %d arrived after chunk %d (out of order)", m.Seq, seen)
		return
	case len(p.snapBuf)+len(m.Blob) > p.maxImage:
		// Total is the pusher's claim and chunks are not counted against
		// it, so the assembled size is what bounds a push.
		p.snapBuf, p.snapSeq = nil, 0
		p.snapMu.Unlock()
		reply.Err = fmt.Sprintf("snapshot chunk %d/%d takes the image past the %d-byte limit", m.Seq, m.Total, p.maxImage)
		return
	}
	p.snapBuf = append(p.snapBuf, m.Blob...)
	p.snapSeq = m.Seq
	done := m.Seq == m.Total
	var img []byte
	if done {
		img = p.snapBuf
		p.snapBuf = nil
		p.snapSeq = 0
	}
	h := p.snapHandler
	p.snapMu.Unlock()
	p.m.snapshotChunks.Inc()
	p.m.snapshotBytes.Add(int64(len(m.Blob)))
	if !done {
		return // plain ack reply releases the pusher's next chunk
	}
	if h == nil {
		reply.Err = fmt.Sprintf("no snapshot handler installed for %q push", m.Method)
		return
	}
	if err := h(m.Method, m.Class, img); err != nil {
		reply.Err = err.Error()
		reply.ErrCode = uint8(CodeOf(err))
	} else if m.Method == SnapHandoff {
		p.retired.Store(true)
	}
}

// servePull answers one chunk of this side's own snapshot, capturing
// the image via the installed source on the pull's first chunk and
// serving every later chunk from that cache so the puller assembles a
// consistent image even if the VM keeps running.
func (p *Peer) servePull(m *Message, reply *Message) {
	p.snapMu.Lock()
	img := p.snapCache
	src := p.snapSource
	p.snapMu.Unlock()
	if img == nil {
		if src == nil {
			reply.Err = "no snapshot source installed"
			return
		}
		fresh, err := src() // capture outside snapMu: it may walk a large heap
		if err != nil {
			reply.Err = err.Error()
			reply.ErrCode = uint8(CodeOf(err))
			return
		}
		p.snapMu.Lock()
		if p.snapCache == nil {
			p.snapCache = fresh
		}
		img = p.snapCache
		p.snapMu.Unlock()
	}
	total := (len(img) + p.chunkSize - 1) / p.chunkSize
	if total == 0 {
		total = 1
	}
	if m.Seq < 1 || m.Seq > int64(total) {
		reply.Err = fmt.Sprintf("snapshot pull chunk %d of %d out of range", m.Seq, total)
		return
	}
	lo := int(m.Seq-1) * p.chunkSize
	hi := lo + p.chunkSize
	if hi > len(img) {
		hi = len(img)
	}
	reply.Blob = img[lo:hi]
	reply.Seq = m.Seq
	reply.Total = int64(total)
	p.m.snapshotChunks.Inc()
	p.m.snapshotBytes.Add(int64(hi - lo))
}

// serveSnapshotAck releases the cached pull capture and any stale
// assembly state: the puller has the image, or the exchange is being
// reset.
func (p *Peer) serveSnapshotAck() {
	p.snapMu.Lock()
	p.snapCache = nil
	p.snapBuf = nil
	p.snapSeq = 0
	p.snapMu.Unlock()
}
