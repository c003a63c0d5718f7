package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"aide/internal/vm"
)

func TestChannelPairRoundTrip(t *testing.T) {
	a, b := NewChannelPair()
	defer a.Close()
	msg := &Message{ID: 1, Kind: MsgPing}
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 1 || got.Kind != MsgPing {
		t.Fatalf("got %+v", got)
	}
}

func TestChannelPairClose(t *testing.T) {
	a, b := NewChannelPair()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if err := a.Send(&Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("recv after close: %v", err)
	}
}

// tcpTransportPair connects a client and server transport over a fresh
// TCP loopback socket.
func tcpTransportPair(t *testing.T) (client, server Transport) {
	t.Helper()
	cc, sc := tcpConns(t)
	client, server = NewConnTransport(cc), NewConnTransport(sc)
	t.Cleanup(func() {
		_ = client.Close()
		_ = server.Close()
	})
	return client, server
}

// fullMessage exercises every field group: scalars, args with nested
// refs, a return value, a migration batch, and an ID list.
func fullMessage() *Message {
	return &Message{
		ID: 42, Kind: MsgMigrate, Class: "C", Method: "m", Field: "f",
		Args:         []vm.WireValue{{Kind: vm.KindInt, I: 7}, {Kind: vm.KindRef, Ref: vm.WireRef{ID: 3, Class: "C"}}},
		Ret:          vm.WireValue{Kind: vm.KindString, S: "ok"},
		Batch:        batchOf(migrated{9, "C", 100, []vm.WireValue{{Kind: vm.KindBytes, Bytes: []byte{1, 2, 3}}}}),
		IDs:          []vm.ObjectID{5, 6},
		ElapsedNanos: 12345,
	}
}

func checkFullMessage(t *testing.T, got *Message) {
	t.Helper()
	want := fullMessage()
	if got.ID != want.ID || got.Kind != want.Kind || len(got.Args) != 2 ||
		got.Ret.S != "ok" || !bytes.Equal(got.Batch, want.Batch) ||
		len(got.IDs) != 2 || got.ElapsedNanos != 12345 {
		t.Fatalf("round trip lost data: %+v", got)
	}
}

// TestBinaryTransportOverTCP round-trips a fully populated message
// through the default (binary codec) TCP framing.
func TestBinaryTransportOverTCP(t *testing.T) {
	client, server := tcpTransportPair(t)
	if err := client.Send(fullMessage()); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	checkFullMessage(t, got)
}

// TestChannelSenderMayReuseMessage pins the Transport ownership
// contract: the sender retains the message it passed to Send and may
// mutate and resend it immediately, because the channel transport hands
// the receiver a deep copy. Run under -race this fails loudly if the
// copy ever aliases the sender's slices.
// TestConnTransportAllocations pins what a frame costs the collector on its
// way through a socket: the decoded Message, and nothing for the framing
// (pooled encode buffer, retained read buffer, the length prefix read
// through the transport's own counting reader).
func TestConnTransportAllocations(t *testing.T) {
	tc, ts := tcpTransportPair(t)
	m := &Message{Kind: MsgInvoke, ID: 5, Obj: 3, Method: "echo"}
	n := testing.AllocsPerRun(200, func() {
		if err := tc.Send(m); err != nil {
			t.Fatal(err)
		}
		if _, err := ts.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("a small frame cost %.0f allocations to send and receive, want 1", n)
	}
	// A round trip allocates four Messages; 448 bytes is a size class.
	if size := unsafe.Sizeof(*m); size > 448 {
		t.Errorf("Message is %d bytes, past the allocator's 448-byte class", size)
	}
}

func TestChannelSenderMayReuseMessage(t *testing.T) {
	a, b := NewChannelPair()
	defer a.Close()

	const rounds = 200
	done := make(chan error, 1)
	go func() {
		for i := 0; i < rounds; i++ {
			got, err := b.Recv()
			if err != nil {
				done <- err
				return
			}
			// Touch every mutable field the sender scribbles on.
			if len(got.Args) != 1 || len(got.IDs) != 2 || len(got.Args[0].Bytes) != 4 {
				done <- fmt.Errorf("round %d: message shape lost: %+v", i, got)
				return
			}
		}
		done <- nil
	}()

	m := &Message{
		Kind: MsgInvoke, Method: "m",
		Args: []vm.WireValue{{Kind: vm.KindBytes, Bytes: []byte{0, 0, 0, 0}}},
		IDs:  []vm.ObjectID{1, 2},
	}
	for i := 0; i < rounds; i++ {
		m.ID = uint64(i)
		m.Args[0].Bytes[i%4] = byte(i) // reuse the same backing array every round
		m.IDs[i%2] = vm.ObjectID(i)
		if err := a.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestRecvAllocationFollowsBytesReceived pins the receive bound: a sender
// (perhaps not yet admitted) that declares maxFrame and stalls costs the
// receiver about what it sent, not what it declared — and a legitimate
// frame larger than any growth step still arrives intact.
func TestRecvAllocationFollowsBytesReceived(t *testing.T) {
	hostile, conn := net.Pipe()
	tr := NewConnTransport(conn)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan error, 1)
	go func() {
		_, err := tr.Recv()
		done <- err
	}()
	// net.Pipe writes return once read: when the payload byte has been
	// taken, Recv is past the prefix and inside its first ReadFull.
	for _, b := range [][]byte{binary.AppendUvarint(nil, maxFrame), {wireVersion}} {
		if _, err := hostile.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 2<<20 {
		t.Errorf("a stalled %d-byte claim made the receiver allocate %d bytes", maxFrame, grew)
	}
	hostile.Close()
	if err := <-done; err == nil {
		t.Error("Recv accepted a frame cut off after one byte")
	}
	tr.Close()

	a, b := net.Pipe()
	ta, tb := NewConnTransport(a), NewConnTransport(b)
	defer ta.Close()
	defer tb.Close()
	big := &Message{Kind: MsgSnapshot, ID: 1, Blob: bytes.Repeat([]byte{0xA5, 0x5A, 7}, 1<<20)}
	go func() { done <- ta.Send(big) }()
	got, err := tb.Recv()
	if err != nil {
		t.Fatalf("3 MiB frame: %v", err)
	}
	if !bytes.Equal(got.Blob, big.Blob) {
		t.Fatalf("3 MiB frame arrived changed (%d of %d blob bytes)", len(got.Blob), len(big.Blob))
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestGobTransportCloseUnblocksRecv(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		tr := NewConnTransport(conn)
		_, err = tr.Recv()
		done <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewConnTransport(conn)
	time.Sleep(20 * time.Millisecond)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recv returned nil after peer close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock")
	}
}

func TestMsgKindStrings(t *testing.T) {
	for k := MsgInvoke; k <= MsgReleaseBatch; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if MsgKind(99).String() == "" {
		t.Fatal("unknown kind must still print")
	}
}

func TestRemoteErrorMessage(t *testing.T) {
	e := &RemoteError{Kind: MsgInvoke, Msg: "nope"}
	if e.Error() == "" {
		t.Fatal("empty error text")
	}
}
