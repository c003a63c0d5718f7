package remote

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"aide/internal/vm"
)

// snapPair wires two peers over an in-process channel transport with a
// snapshot chunk size small enough that modest images cross in many
// chunks.
func snapPair(t *testing.T, opts Options) (pc, ps *Peer) {
	t.Helper()
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	pc, ps = NewPair(client, surrogate, opts)
	t.Cleanup(func() {
		if err := pc.Close(); err != nil {
			t.Errorf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("close surrogate peer: %v", err)
		}
	})
	return pc, ps
}

// testImage builds a payload big enough to split into several chunks at
// the given chunk size, with a recognizable byte pattern.
func testImage(n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i * 31)
	}
	return img
}

func TestPushSnapshotChunkedDelivery(t *testing.T) {
	var gotMethod, gotDest string
	var gotImg []byte
	done := make(chan struct{})
	pc, ps := snapPair(t, Options{Workers: 2, SnapshotChunkSize: 64})
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		gotMethod, gotDest = method, dest
		gotImg = img
		close(done)
		return nil
	})

	img := testImage(1000) // 16 chunks at 64 bytes
	if err := pc.PushSnapshot(context.Background(), SnapRestore, "surrogate-2:9000", img); err != nil {
		t.Fatalf("push: %v", err)
	}
	<-done
	if gotMethod != SnapRestore || gotDest != "surrogate-2:9000" {
		t.Fatalf("handler saw method=%q dest=%q", gotMethod, gotDest)
	}
	if !bytes.Equal(gotImg, img) {
		t.Fatalf("assembled image differs: got %d bytes, want %d", len(gotImg), len(img))
	}
	if st := pc.Stats(); st.BytesSent == 0 {
		t.Fatal("no wire bytes accounted for the push")
	}
}

func TestPushSnapshotEmptyImage(t *testing.T) {
	var calls atomic.Int64
	pc, ps := snapPair(t, Options{Workers: 1})
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		if method != SnapDrain || dest != "10.0.0.7:9021" || string(img) != "fleet-key" {
			t.Errorf("handler saw method=%q dest=%q img=%q", method, dest, img)
		}
		calls.Add(1)
		return nil
	})
	if err := pc.DrainRemote(context.Background(), "10.0.0.7:9021", []byte("fleet-key")); err != nil {
		t.Fatalf("drain directive: %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}

	// A key-less directive still crosses as a single empty frame; the
	// receiver's handler (not the transport) is what refuses it.
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		if len(img) != 0 {
			t.Errorf("key-less directive carried %d image bytes", len(img))
		}
		calls.Add(1)
		return nil
	})
	if err := pc.DrainRemote(context.Background(), "10.0.0.7:9021", nil); err != nil {
		t.Fatalf("key-less drain directive: %v", err)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
	}
}

func TestPushSnapshotHandlerErrorCarriesCode(t *testing.T) {
	pc, ps := snapPair(t, Options{Workers: 1, SnapshotChunkSize: 32})
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		return ErrDrained
	})
	err := pc.PushSnapshot(context.Background(), SnapHandoff, "x", testImage(100))
	if err == nil {
		t.Fatal("push succeeded despite handler rejection")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeDrained {
		t.Fatalf("error %v does not carry CodeDrained", err)
	}
	// The typed code must round-trip to the sentinel the VM drain-retry
	// path recognizes.
	if !errors.Is(re.Code.sentinel(), vm.ErrSessionDrained) {
		t.Fatal("CodeDrained sentinel does not unwrap to vm.ErrSessionDrained")
	}
}

func TestPushSnapshotNoHandler(t *testing.T) {
	pc, _ := snapPair(t, Options{Workers: 1})
	err := pc.PushSnapshot(context.Background(), SnapRestore, "", testImage(10))
	if err == nil || !strings.Contains(err.Error(), "no snapshot handler") {
		t.Fatalf("push without handler: %v", err)
	}
}

func TestPullSnapshotChunkedRoundTrip(t *testing.T) {
	img := testImage(777) // 13 chunks at 64 bytes, last one partial
	var captures atomic.Int64
	pc, ps := snapPair(t, Options{Workers: 2, SnapshotChunkSize: 64})
	ps.SetSnapshotSource(func() ([]byte, error) {
		captures.Add(1)
		return img, nil
	})

	got, err := pc.PullSnapshot(context.Background())
	if err != nil {
		t.Fatalf("pull: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("pulled image differs: got %d bytes, want %d", len(got), len(img))
	}
	if captures.Load() != 1 {
		t.Fatalf("source captured %d times during one pull, want 1 (chunks must share a cache)", captures.Load())
	}

	// The ack released the cache: a second pull captures afresh.
	if _, err := pc.PullSnapshot(context.Background()); err != nil {
		t.Fatalf("second pull: %v", err)
	}
	if captures.Load() != 2 {
		t.Fatalf("source captured %d times after two pulls, want 2", captures.Load())
	}
}

func TestPullSnapshotNoSource(t *testing.T) {
	pc, _ := snapPair(t, Options{Workers: 1})
	if _, err := pc.PullSnapshot(context.Background()); err == nil || !strings.Contains(err.Error(), "no snapshot source") {
		t.Fatalf("pull without source: %v", err)
	}
}

func TestPullSnapshotSourceError(t *testing.T) {
	pc, ps := snapPair(t, Options{Workers: 1})
	ps.SetSnapshotSource(func() ([]byte, error) {
		return nil, errors.New("heap walk failed")
	})
	if _, err := pc.PullSnapshot(context.Background()); err == nil || !strings.Contains(err.Error(), "heap walk failed") {
		t.Fatalf("pull with failing source: %v", err)
	}
}

func TestSnapshotGateRejectionCarriesDrainedCode(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ta, tb := NewChannelPair()
	pc := NewPeer(client, ta, Options{Workers: 1})
	ps := NewPeer(surrogate, tb, Options{Workers: 1, Gate: func(kind MsgKind) error {
		if kind == MsgInvoke {
			return ErrDrained
		}
		return nil
	}})
	t.Cleanup(func() {
		if err := pc.Close(); err != nil {
			t.Errorf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("close surrogate peer: %v", err)
		}
	})

	_, err := pc.Call(context.Background(), &Message{Kind: MsgInvoke, Obj: 1, Method: "x"})
	if err == nil {
		t.Fatal("gated invoke succeeded")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeDrained {
		t.Fatalf("gated invoke error %v does not carry CodeDrained", err)
	}
	if !errors.Is(re.Code.sentinel(), ErrDrained) {
		t.Fatal("CodeDrained does not unwrap to ErrDrained")
	}
}

func TestWaitServeIdleQuiesces(t *testing.T) {
	release := make(chan struct{})
	entered := make(chan struct{})
	pc, ps := snapPair(t, Options{Workers: 2})
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		close(entered)
		<-release
		return nil
	})

	pushDone := make(chan error, 1)
	go func() { pushDone <- pc.PushSnapshot(context.Background(), SnapRestore, "", nil) }()
	<-entered

	// With the handler parked inside serve(), allow=1 passes immediately
	// while allow=0 must block until the handler returns.
	ps.WaitServeIdle(1)
	idle := make(chan struct{})
	go func() { ps.WaitServeIdle(0); close(idle) }()
	select {
	case <-idle:
		t.Fatal("WaitServeIdle(0) returned with a serve in flight")
	default:
	}
	close(release)
	<-idle
	if err := <-pushDone; err != nil {
		t.Fatalf("push: %v", err)
	}
}

func TestSnapshotTransferOverTCP(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	tClient, tServer := tcpTransportPair(t)
	pc := NewPeer(client, tClient, Options{Workers: 2, SnapshotChunkSize: 128})
	ps := NewPeer(surrogate, tServer, Options{Workers: 2, SnapshotChunkSize: 128})
	t.Cleanup(func() {
		if err := pc.Close(); err != nil {
			t.Errorf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("close surrogate peer: %v", err)
		}
	})

	img := testImage(5000)
	ps.SetSnapshotSource(func() ([]byte, error) { return img, nil })
	got, err := pc.PullSnapshot(context.Background())
	if err != nil {
		t.Fatalf("pull over TCP: %v", err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("pulled image differs over TCP: got %d bytes, want %d", len(got), len(img))
	}

	assembled := make(chan []byte, 1)
	ps.SetSnapshotHandler(func(method, dest string, in []byte) error {
		assembled <- append([]byte(nil), in...)
		return nil
	})
	if err := pc.PushSnapshot(context.Background(), SnapRestore, "", img); err != nil {
		t.Fatalf("push over TCP: %v", err)
	}
	if got := <-assembled; !bytes.Equal(got, img) {
		t.Fatalf("pushed image differs over TCP: got %d bytes, want %d", len(got), len(img))
	}
}

// TestHandedOffPeerClosesWithDrainedRedirect: once a peer has acknowledged
// a SnapHandoff push its session lives elsewhere, so a call its Close
// fails must read as the drained redirect (the VM re-dispatches it to the
// new home) while still matching ErrClosed. Any other push mode, and a
// refused handoff, leave the close cause plain.
func TestHandedOffPeerClosesWithDrainedRedirect(t *testing.T) {
	cases := []struct {
		name, mode string
		verdict    error
		redirected bool
	}{
		{"handoff acknowledged", SnapHandoff, nil, true},
		{"handoff refused", SnapHandoff, errors.New("cannot re-home"), false},
		{"restore", SnapRestore, nil, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pc, ps := snapPair(t, Options{Workers: 1})
			pc.SetSnapshotHandler(func(string, string, []byte) error { return tc.verdict })
			if err := ps.PushSnapshot(context.Background(), tc.mode, "dest:1", []byte("img")); (err == nil) != (tc.verdict == nil) {
				t.Fatalf("push: %v", err)
			}
			if err := pc.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			err := pc.Ping()
			if !errors.Is(err, ErrClosed) {
				t.Fatalf("call on the closed peer = %v, want ErrClosed", err)
			}
			if got := errors.Is(err, ErrDrained); got != tc.redirected {
				t.Fatalf("call on the closed peer = %v; drained redirect %v, want %v", err, got, tc.redirected)
			}
		})
	}
}

// TestSnapshotAssemblyIsCapped pins the reassembly bound in both
// directions: chunks are appended as they come and Total is only the
// sender's claim, so it is the assembled size that must stop a peer that
// keeps sending. The refusal names the limit, drops the partial image and
// leaves the connection usable.
func TestSnapshotAssemblyIsCapped(t *testing.T) {
	const limit = 256
	var got []byte
	pc, ps := snapPair(t, Options{Workers: 1, SnapshotChunkSize: 64})
	ps.maxImage = limit
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		got = img
		return nil
	})
	err := pc.PushSnapshot(context.Background(), SnapRestore, "", testImage(1000))
	if err == nil || !strings.Contains(err.Error(), "256-byte limit") || !strings.Contains(err.Error(), "chunk 5/16") {
		t.Fatalf("over-long push: err = %v, want a refusal of chunk 5/16 naming the limit", err)
	}
	ps.snapMu.Lock()
	held := len(ps.snapBuf) + cap(ps.snapBuf)
	ps.snapMu.Unlock()
	if held != 0 || got != nil {
		t.Fatalf("refused push left %d buffered bytes, handler saw %d", held, len(got))
	}
	if err := pc.PushSnapshot(context.Background(), SnapRestore, "", testImage(limit)); err != nil {
		t.Fatalf("push of exactly the limit after a refusal: %v", err)
	}
	if !bytes.Equal(got, testImage(limit)) {
		t.Fatalf("push after a refusal assembled %d bytes, want %d", len(got), limit)
	}

	// Pull: a hand-driven serving end answers every chunk request with
	// "one more to come" until it is acked, then serves two chunks.
	ta, tb := NewChannelPair()
	puller := NewPeer(vm.New(testRegistry(t), vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20}), ta, Options{Workers: 1})
	puller.maxImage = limit
	chunk := testImage(100)
	var served, acks atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := tb.Recv()
			if err != nil {
				return
			}
			reply := &Message{Kind: m.Kind, ID: m.ID, Reply: true}
			switch {
			case m.Kind == MsgSnapshotAck:
				acks.Add(1)
			case m.Kind == MsgSnapshot && acks.Load() == 0:
				served.Add(1)
				reply.Seq, reply.Total, reply.Blob = m.Seq, m.Seq+1, chunk
			case m.Kind == MsgSnapshot:
				reply.Seq, reply.Total, reply.Blob = m.Seq, 2, chunk
			}
			if err := tb.Send(reply); err != nil {
				return
			}
		}
	}()
	img, err := puller.PullSnapshot(context.Background())
	if err == nil || !strings.Contains(err.Error(), "256-byte limit") || img != nil {
		t.Fatalf("endless pull: %d bytes, err = %v, want a refusal naming the limit", len(img), err)
	}
	if served.Load() != 3 || acks.Load() != 1 {
		t.Fatalf("endless pull took %d chunks and sent %d acks before refusing, want 3 and 1", served.Load(), acks.Load())
	}
	img, err = puller.PullSnapshot(context.Background())
	if err != nil || !bytes.Equal(img, append(append([]byte(nil), chunk...), chunk...)) {
		t.Fatalf("pull after a refusal: %d bytes, err = %v", len(img), err)
	}
	if err := puller.Close(); err != nil {
		t.Errorf("close puller: %v", err)
	}
	<-done
}
