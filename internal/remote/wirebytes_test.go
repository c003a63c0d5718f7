package remote

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/vm"
)

// countConn counts the bytes its owner writes to the socket.
type countConn struct {
	net.Conn
	wrote atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.wrote.Add(int64(n))
	return n, err
}

// TestWireBytesExact pins the peer's byte counters to the socket: in each
// direction, what one side's Stats call sent is what it wrote to the
// connection and what the other side's Stats call received — for every
// message kind, a snapshot push, a release batch and a send
// that fails once before it succeeds. Stats and the netmodel costing
// charge the frame lengths the transports stamp, so these are the bytes
// they charge.
func TestWireBytesExact(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20, CPUSpeed: 3.5})
	cc, sc := tcpConns(t)
	cw, sw := &countConn{Conn: cc}, &countConn{Conn: sc}
	flaky := &flakyTransport{Transport: NewConnTransport(cw), failKind: MsgPing, failOn: 2}
	pc := NewPeer(client, flaky, Options{RetryBase: time.Microsecond})
	ps := NewPeer(surrogate, NewConnTransport(sw), Options{})
	t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error { return nil })

	ctx := context.Background()
	seen := map[MsgKind]bool{}
	for _, m := range codecMessages() {
		seen[m.Kind] = true
		if m.Reply {
			continue // the surrogate writes the replies, most of them errors
		}
		req := *m
		switch m.Kind {
		case MsgRelease, MsgReleaseBatch:
			// One-way: the next call's reply shows the surrogate read it.
			req.ID = pc.nextID.Add(1)
			if err := pc.send(&req); err != nil {
				t.Fatalf("%s: %v", m.Kind, err)
			}
		default:
			var rerr *RemoteError
			if _, err := pc.Call(ctx, &req); err != nil && !errors.As(err, &rerr) {
				t.Fatalf("%s: %v", m.Kind, err)
			}
		}
	}
	for k := MsgInvoke; k <= MsgSnapshot; k++ {
		// MsgPromiseRef is never a frame's kind: it marks a promise
		// receiver inside a MsgInvokeBatch payload. Kind 16 is retired.
		if k != MsgPromiseRef && k != 16 && !seen[k] {
			t.Errorf("codecMessages covers no %s message", k)
		}
	}
	if err := pc.PushSnapshot(ctx, SnapRestore, "", testImage(100)); err != nil {
		t.Fatal(err)
	}
	for id := vm.ObjectID(1); id <= 3; id++ {
		pc.Release(id)
	}
	if err := pc.Ping(); err != nil { // flushes the batch first; the ping itself is sent twice
		t.Fatal(err)
	}
	// A peer counts a frame it serves after writing it, so neither side
	// may still be serving when the counters are read.
	ps.WaitServeIdle(0)
	pc.WaitServeIdle(0)

	cs, ss := pc.Stats(), ps.Stats()
	if cs.SendRetries != 1 || cs.ReleaseBatchesSent != 1 {
		t.Errorf("client retried %d sends and sent %d release batches, want 1 and 1", cs.SendRetries, cs.ReleaseBatchesSent)
	}
	if w := cw.wrote.Load(); cs.BytesSent != w || ss.BytesReceived != w || w == 0 {
		t.Errorf("client to surrogate: BytesSent %d, socket %d, BytesReceived %d", cs.BytesSent, w, ss.BytesReceived)
	}
	if w := sw.wrote.Load(); ss.BytesSent != w || cs.BytesReceived != w || w == 0 {
		t.Errorf("surrogate to client: BytesSent %d, socket %d, BytesReceived %d", ss.BytesSent, w, cs.BytesReceived)
	}
}
