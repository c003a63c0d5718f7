package aide

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"aide/internal/remote"
	"aide/internal/telemetry"
	"aide/internal/vm"
)

// waitHandoff is the VM's drain handler: a remote call on slot idx came
// back with the typed drained redirect, issued through peer used. Block
// until the concurrent handoff replaces the slot's peer (then retry the
// call against the new home), or give up after the handoff timeout (the
// call then surfaces ErrDrained to the application). A straggler of a
// handoff that already completed — including a call failed by the
// replaced connection's own close — retries at once.
func (c *Client) waitHandoff(idx int, used vm.Peer) bool {
	wait, aborted := c.slots.bounce(idx, wirePeer(used))
	if wait == nil {
		if aborted {
			// The round aborted and the session resumed in place. The
			// surrogate clears its draining gate only when our error
			// reply lands, which can lag this wake-up by a round trip; a
			// short pause keeps the caller's bounded redirect retries
			// from burning out against the still-closing gate.
			time.Sleep(2 * time.Millisecond)
		}
		return true
	}
	timeout := c.opts.handoffTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-wait:
		return true
	case <-timer.C:
		return false
	}
}

// newPeer opens the client's half of a surrogate connection over t, wired
// into disconnect handling and subscribed to live handoffs: when the
// surrogate drains, it pushes the session snapshot here with the
// destination's address. A non-nil takeover inherits that VM peer slot
// instead of attaching a fresh one.
func (c *Client) newPeer(t remote.Transport, takeover *int) *remote.Peer {
	ro := c.opts.remoteOptions()
	// OnDown runs on the goroutine that observed the failure, which Close
	// joins — hence the slot table closing the peer in the background.
	ro.OnDown = func(p *remote.Peer, _ error) { c.disconnect(p.VMIndex(), p) }
	ro.Takeover = takeover
	p := remote.NewPeer(c.vm, t, ro)
	p.SetSnapshotHandler(func(method, dest string, img []byte) error {
		if method != remote.SnapHandoff {
			return fmt.Errorf("aide: client cannot consume snapshot push %q", method)
		}
		return c.handleHandoff(p, dest, img)
	})
	return p
}

// dial resolves a destination surrogate address to a transport, through
// the WithDialer override when one is installed.
func (c *Client) dial(ctx context.Context, addr string) (remote.Transport, error) {
	if c.opts.dialer != nil {
		return c.opts.dialer(ctx, addr)
	}
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return remote.NewConnTransport(conn), nil
}

// handleHandoff re-homes one session: the draining surrogate shipped its
// snapshot of our session with the destination's address. Dial the
// destination, open a replacement connection that inherits the old
// slot's index (so every stub and import table stays valid), restore the
// image there, and atomically swap the slot. Returning nil acknowledges
// the handoff — the old surrogate then retires the session; any error
// makes it resume in place instead.
func (c *Client) handleHandoff(old *remote.Peer, dest string, img []byte) error {
	idx := old.VMIndex()
	traced, tStart := c.traceStart()

	// Publish (or adopt) the wait round before any slow work so threads
	// bounced by the draining gate park instead of erroring.
	c.slots.openRound(idx)

	// fail abandons the handoff: the surrogate sees our error, clears
	// draining, and the session resumes in place — so wake every parked
	// waiter now (a round closed with no installed peer makes any later
	// bounce a retriable straggler) rather than let them sit out the handoff
	// timeout and surface ErrDrained for a session that is serving again.
	fail := func(err error) error {
		c.slots.closeRound(idx, nil)
		return err
	}

	// Scope the re-homing to the old connection's lifetime: if it dies
	// mid-handoff the disconnect path owns the slot.
	ctx := old.LifeContext()
	t, err := c.dial(ctx, dest)
	if err != nil {
		return fail(fmt.Errorf("aide: handoff dial %s: %w", dest, err))
	}
	np := c.newPeer(t, &idx)
	abort := func(err error) error {
		if cerr := np.Close(); cerr != nil && c.opts.logf != nil {
			c.opts.logf("aide: close aborted handoff peer: %v", cerr)
		}
		return fail(err)
	}
	if _, err := np.Attach(ctx); err != nil {
		return abort(fmt.Errorf("aide: handoff attach %s: %w", dest, err))
	}
	if err := np.PushSnapshot(ctx, remote.SnapRestore, "", img); err != nil {
		return abort(fmt.Errorf("aide: handoff restore at %s: %w", dest, err))
	}

	// The swap cannot interleave with a disconnect teardown of the slot.
	// On success the table closes old in the background, only after this
	// handler's own ack — we are on one of old's serve workers — is written.
	var vp vm.Peer = np
	if c.opts.speculate {
		vp = newSpecPeer(c, np)
	}
	ok, err := c.slots.exchange(idx, old, np, "handed-off", func() error { return c.vm.ReplacePeer(idx, vp) })
	if err != nil {
		return abort(fmt.Errorf("aide: handoff swap: %w", err))
	}
	if !ok {
		return abort(errors.New("aide: handoff: peer slot lost mid-transfer"))
	}

	c.slots.closeRound(idx, np)
	c.mu.Lock()
	c.handoffsDone++
	c.mu.Unlock()
	c.pm.handoffs.Inc()
	if traced {
		c.tracer.Emit(telemetry.Span{
			Kind: telemetry.SpanDrain, Note: "client:" + dest, Peer: idx,
			Bytes: int64(len(img)), Start: tStart, Dur: time.Since(tStart),
		})
	}
	return nil
}

// Handoffs reports how many live session handoffs this client has
// completed.
func (c *Client) Handoffs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.handoffsDone
}
