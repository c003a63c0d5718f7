package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"aide/internal/vm"
)

// snapPair wires two peers over an in-process channel transport.
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

// testImage builds an n-byte payload with a recognizable byte pattern.
func testImage(n int) []byte {
	img := make([]byte, n)
	for i := range img {
		img[i] = byte(i * 31)
	}
	return img
}

// requestsSent runs transfer and returns how many requests p issued for
// it: a snapshot transfer is exactly one.
func requestsSent(p *Peer, transfer func()) int64 {
	before := p.Stats().RequestsSent
	transfer()
	return p.Stats().RequestsSent - before
}

// TestPushSnapshotOneRequest: an image this size crosses whole, as one
// request.
func TestPushSnapshotOneRequest(t *testing.T) {
	var gotMethod, gotDest string
	var gotImg []byte
	pc, ps := snapPair(t, Options{Workers: 2})
	ps.SetSnapshotHandler(func(method, dest string, img []byte) error {
		gotMethod, gotDest, gotImg = method, dest, img
		return nil
	})

	img := testImage(5000)
	var err error
	if n := requestsSent(pc, func() { err = pc.PushSnapshot(context.Background(), SnapRestore, "surrogate-2:9000", img) }); err != nil || n != 1 {
		t.Fatalf("push: %d requests, err = %v; want 1 and nil", n, err)
	}
	if gotMethod != SnapRestore || gotDest != "surrogate-2:9000" {
		t.Fatalf("handler saw method=%q dest=%q", gotMethod, gotDest)
	}
	if !bytes.Equal(gotImg, img) {
		t.Fatalf("delivered image differs: got %d bytes, want %d", len(gotImg), len(img))
	}
	if st := pc.Stats(); st.BytesSent < int64(len(img)) {
		t.Fatalf("%d wire bytes accounted for a %d-byte push", st.BytesSent, len(img))
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
	pc, ps := snapPair(t, Options{Workers: 1})
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

// TestPullSnapshotOneRequest: a pull is one request, and the source
// captures once for each.
func TestPullSnapshotOneRequest(t *testing.T) {
	img := testImage(5000)
	var captures atomic.Int64
	pc, ps := snapPair(t, Options{Workers: 2})
	ps.SetSnapshotSource(func() ([]byte, error) {
		captures.Add(1)
		return img, nil
	})
	for pull := int64(1); pull <= 2; pull++ {
		var got []byte
		var err error
		if n := requestsSent(pc, func() { got, err = pc.PullSnapshot(context.Background()) }); err != nil || n != 1 {
			t.Fatalf("pull %d: %d requests, err = %v; want 1 and nil", pull, n, err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("pull %d: image differs: got %d bytes, want %d", pull, len(got), len(img))
		}
		if captures.Load() != pull {
			t.Fatalf("source captured %d times after %d pulls", captures.Load(), pull)
		}
	}
}

// dropFirstReply loses the first reply of one kind on its way in, telling
// the test when it has.
type dropFirstReply struct {
	Transport
	kind    MsgKind
	dropped atomic.Bool
	onDrop  func()
}

func (d *dropFirstReply) Recv() (*Message, error) {
	for {
		m, err := d.Transport.Recv()
		if err != nil || !m.Reply || m.Kind != d.kind || !d.dropped.CompareAndSwap(false, true) {
			return m, err
		}
		d.onDrop()
	}
}

// TestPullAfterAbandonedPullReturnsCurrentState: a pull whose reply is
// lost — the degraded link is when speculation pulls — leaves nothing
// behind on the serving side, so the next pull reads the state of its own
// moment and the source runs once per request served.
func TestPullAfterAbandonedPullReturnsCurrentState(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ta, tb := NewChannelPair()
	abandoned, abandon := context.WithCancel(context.Background())
	pc := NewPeer(client, &dropFirstReply{Transport: ta, kind: MsgSnapshot, onDrop: abandon}, Options{Workers: 1})
	ps := NewPeer(surrogate, tb, Options{Workers: 1})
	t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })

	var captures atomic.Int64
	ps.SetSnapshotSource(func() ([]byte, error) {
		return []byte(fmt.Sprintf("state-%d", captures.Add(1))), nil
	})
	if img, err := pc.PullSnapshot(abandoned); !errors.Is(err, context.Canceled) {
		t.Fatalf("pull whose reply was dropped: %q, err = %v; want context.Canceled", img, err)
	}
	img, err := pc.PullSnapshot(context.Background())
	if err != nil || string(img) != "state-2" {
		t.Fatalf("pull after an abandoned pull = %q, err = %v; want the current state-2", img, err)
	}
	if c, served := captures.Load(), ps.Stats().RequestsServed; c != 2 || served != 2 {
		t.Fatalf("source ran %d times for %d requests served, want 2 and 2", c, served)
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
		return nil, fmt.Errorf("heap walk failed: %w", ErrEvicted)
	})
	img, err := pc.PullSnapshot(context.Background())
	if err == nil || !strings.Contains(err.Error(), "heap walk failed") || img != nil {
		t.Fatalf("pull with failing source: %q, err = %v", img, err)
	}
	if !errors.Is(err, ErrEvicted) {
		t.Fatalf("source error %v lost its typed code on the wire", err)
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
	pc := NewPeer(client, tClient, Options{Workers: 2})
	ps := NewPeer(surrogate, tServer, Options{Workers: 2})
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
	var got []byte
	var err error
	if n := requestsSent(pc, func() { got, err = pc.PullSnapshot(context.Background()) }); err != nil || n != 1 {
		t.Fatalf("pull over TCP: %d requests, err = %v; want 1 and nil", n, err)
	}
	if !bytes.Equal(got, img) {
		t.Fatalf("pulled image differs over TCP: got %d bytes, want %d", len(got), len(img))
	}

	delivered := make(chan []byte, 1)
	ps.SetSnapshotHandler(func(method, dest string, in []byte) error {
		delivered <- append([]byte(nil), in...)
		return nil
	})
	if n := requestsSent(pc, func() { err = pc.PushSnapshot(context.Background(), SnapRestore, "", img) }); err != nil || n != 1 {
		t.Fatalf("push over TCP: %d requests, err = %v; want 1 and nil", n, err)
	}
	if got := <-delivered; !bytes.Equal(got, img) {
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

// TestRetiredAckKindIsUnknownRequest: kind 19 closed a chunked transfer
// once and kind 16 fetched fields a migration withheld; nothing assigns
// either now. The codec carries any kind byte; it is serve that refuses
// one it has no case for, runs nothing on the serving VM, and leaves the
// connection usable.
func TestRetiredAckKindIsUnknownRequest(t *testing.T) {
	for _, kind := range []MsgKind{16, MsgSnapshot + 1} {
		t.Run(fmt.Sprintf("kind%d", byte(kind)), func(t *testing.T) {
			client, surrogate, pc, _ := newPlatform(t)
			doc := offloadDoc(t, client, pc)
			before := surrogate.ExportSnapshot()
			_, err := pc.Call(context.Background(), &Message{Kind: kind,
				Obj: client.Object(doc).PeerID, Classes: []string{"len"}})
			var re *RemoteError
			if want := fmt.Sprintf("unknown request kind %d", kind); !errors.As(err, &re) || !strings.Contains(re.Msg, want) {
				t.Fatalf("kind %d request: err = %v, want the peer's unknown-kind refusal", kind, err)
			}
			if after := surrogate.ExportSnapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("the serving VM changed answering a kind-%d request", kind)
			}
			if err := pc.Ping(); err != nil {
				t.Fatalf("ping after the refusal: %v", err)
			}
		})
	}
}
