package remote

import (
	"context"
	"errors"
	"fmt"

	"aide/internal/telemetry"
)

// Snapshot transfer modes, carried in Message.Method. A transfer is one
// request and one reply: a push (SnapRestore, SnapHandoff, SnapDrain)
// carries the image in the request's Blob and the reply is the
// receiving handler's verdict; a pull (SnapPull) carries nothing and the
// reply's Blob is the image the receiver captured for that request. The
// frame's maxFrame check is the one size bound, and the one Call (its
// ctx and Options.CallTimeout) bounds the whole transfer.
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
	// SnapPull requests the receiver's own snapshot; the reply carries it
	// in Blob.
	SnapPull = "pull"
)

// SetSnapshotHandler installs the consumer for incoming snapshot
// pushes. The handler runs on a worker goroutine with the push mode
// (SnapRestore, SnapHandoff, SnapDrain), the destination address from
// the frame's Class field, and the image bytes; its error (text plus
// typed code via CodeOf) fails the push's reply.
func (p *Peer) SetSnapshotHandler(h func(method, dest string, img []byte) error) {
	p.snapMu.Lock()
	p.snapHandler = h
	p.snapMu.Unlock()
}

// SetSnapshotSource installs the capture function serving PullSnapshot
// requests from the other side. It runs on a worker goroutine, once per
// pull request served: nothing is kept between requests, so a pull
// always reads this side's current state.
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

// PushSnapshot sends img to the peer as one MsgSnapshot frame. method is
// the push mode (SnapRestore, SnapHandoff, SnapDrain) and dest rides in
// the frame's Class field. The reply carries the receiving handler's
// verdict: a nil return means the handler consumed the image.
func (p *Peer) PushSnapshot(ctx context.Context, method, dest string, img []byte) error {
	return p.span(ctx, telemetry.SpanSnapshot, "push:"+method, func(ctx context.Context, s *telemetry.Span) error {
		s.Bytes = int64(len(img))
		return p.pushSnapshot(ctx, method, dest, img)
	})
}

func (p *Peer) pushSnapshot(ctx context.Context, method, dest string, img []byte) error {
	if _, err := p.Call(ctx, &Message{Kind: MsgSnapshot, Method: method, Class: dest, Blob: img}); err != nil {
		return fmt.Errorf("remote: snapshot push (%s): %w", method, err)
	}
	p.m.snapshotBytes.Add(int64(len(img)))
	return nil
}

// PullSnapshot fetches the peer's snapshot image, captured by its
// SetSnapshotSource hook for this request. The speculation path uses
// this to seed a local shadow clone from the surrogate's authoritative
// state.
func (p *Peer) PullSnapshot(ctx context.Context) (img []byte, err error) {
	err = p.span(ctx, telemetry.SpanSnapshot, "pull", func(ctx context.Context, s *telemetry.Span) error {
		reply, err := p.Call(ctx, &Message{Kind: MsgSnapshot, Method: SnapPull})
		if err != nil {
			return fmt.Errorf("remote: snapshot pull: %w", err)
		}
		img = reply.Blob
		s.Bytes = int64(len(img))
		p.m.snapshotBytes.Add(int64(len(img)))
		return nil
	})
	return img, err
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

// serveSnapshot handles one incoming MsgSnapshot frame: a pull is
// answered with an image the installed source captures now, a push hands
// its image to the installed handler, and either one's error becomes the
// reply's.
func (p *Peer) serveSnapshot(m *Message, reply *Message) {
	p.snapMu.Lock()
	h, src := p.snapHandler, p.snapSource
	p.snapMu.Unlock()
	var err error
	switch {
	case m.Method == SnapPull && src == nil:
		err = errors.New("no snapshot source installed")
	case m.Method == SnapPull:
		// Outside snapMu: the capture may walk a large heap.
		reply.Blob, err = src()
	case h == nil:
		err = fmt.Errorf("no snapshot handler installed for %q push", m.Method)
	default:
		if err = h(m.Method, m.Class, m.Blob); err == nil && m.Method == SnapHandoff {
			p.retired.Store(true)
		}
	}
	if err != nil {
		reply.Err = err.Error()
		reply.ErrCode = uint8(CodeOf(err))
		return
	}
	p.m.snapshotBytes.Add(int64(len(m.Blob) + len(reply.Blob)))
}
