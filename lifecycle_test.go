package aide

import (
	"context"
	"errors"
	"slices"
	"sync"
	"testing"
	"time"

	"aide/internal/remote"
	"aide/internal/telemetry"
)

// gateTransport puts one connection's frame order in the test's hands:
// outgoing frames matching hold park inside Send (announced on parked)
// until release closes; with lateRecvErr set, the connection's death is
// withheld from the receive loop until that closes; closed closes when
// the owning peer closes the transport; fail makes matching sends error.
type gateTransport struct {
	remote.Transport
	hold        func(m *remote.Message) bool
	fail        func(m *remote.Message) error
	parked      chan struct{}
	release     chan struct{}
	lateRecvErr chan struct{}
	recvFailed  chan struct{}
	closed      chan struct{}
	recvOnce    sync.Once
	closeOnce   sync.Once
}

func newGateTransport(inner remote.Transport) *gateTransport {
	return &gateTransport{
		Transport:  inner,
		parked:     make(chan struct{}, 16), // never blocks the sender: at most a few frames park per test
		release:    make(chan struct{}),
		recvFailed: make(chan struct{}),
		closed:     make(chan struct{}),
	}
}

func (g *gateTransport) Send(m *remote.Message) error {
	if g.fail != nil {
		if err := g.fail(m); err != nil {
			return err
		}
	}
	if g.hold != nil && g.hold(m) {
		g.parked <- struct{}{}
		<-g.release
	}
	return g.Transport.Send(m)
}

func (g *gateTransport) Recv() (*remote.Message, error) {
	m, err := g.Transport.Recv()
	if err != nil {
		if g.lateRecvErr != nil {
			<-g.lateRecvErr
		}
		g.recvOnce.Do(func() { close(g.recvFailed) })
	}
	return m, err
}

func (g *gateTransport) Close() error {
	g.closeOnce.Do(func() { close(g.closed) })
	return g.Transport.Close()
}

// gatedFixture is the handoff fixture with the client's connection to s1
// running through a gateTransport (s2 stays on TCP: the handoff dials it).
func gatedFixture(t *testing.T, clientOpts ...Option) (*handoffFixture, *gateTransport) {
	t.Helper()
	reg := demoRegistry(t)
	tr := NewTracer(256)
	tr.SetEnabled(true)
	f := &handoffFixture{s1: NewSurrogate(reg, WithTelemetry(nil, tr)), s2: NewSurrogate(reg)}
	var err error
	if f.addr2, err = f.s2.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen s2: %v", err)
	}
	opts := append([]Option{WithHeap(1 << 20), WithCallTimeout(5 * time.Second)}, clientOpts...)
	f.client = NewClient(reg, opts...)
	ct, st := remote.NewChannelPair()
	gate := newGateTransport(ct)
	t.Cleanup(func() {
		_ = f.client.Close()
		_ = f.s1.Close()
		_ = f.s2.Close()
	})
	f.s1.Serve(st)
	if err := f.client.Attach(gate); err != nil {
		t.Fatalf("attach: %v", err)
	}
	f.offloadDoc(t)
	f.append(t)
	return f, gate
}

func isInvoke(m *remote.Message) bool { return !m.Reply && m.Kind == remote.MsgInvoke }

// TestStragglerOnReplacedPeerIsRedispatched pins what happens to a call
// that picked slot 0's connection just before a live handoff replaced it
// and only learns of the old connection's end afterwards. The call is
// parked inside the old transport's Send, the drain runs to completion
// around it, and then the old connection ends one of two ways:
//
//   - lost: the drained surrogate closes it, the call fails with
//     ErrDisconnected and enters disconnect failover — which must find the
//     slot holding a different, healthy peer and retry there, not tear the
//     replacement down and restart the Doc zeroed ("append returned 2");
//   - closed: the client's own retire closes it first, and the call must
//     come back as a drained redirect, not a bare "connection closed".
//
// Either way the call cannot have run on the old home — it was never
// sent, and the retired session's gate bounces whatever is — so the
// cumulative counter, continued at the new home, is the proof.
func TestStragglerOnReplacedPeerIsRedispatched(t *testing.T) {
	for _, end := range []string{"lost", "closed"} {
		t.Run(end, func(t *testing.T) {
			f, gate := gatedFixture(t)
			if end == "closed" {
				gate.lateRecvErr = make(chan struct{})
				defer close(gate.lateRecvErr)
			}
			gate.hold = isInvoke

			straggler := make(chan error, 1)
			go func() { straggler <- f.tryAppend() }()
			<-gate.parked

			moved, err := f.s1.Drain(context.Background(), f.addr2)
			if err != nil || moved != 1 {
				t.Fatalf("drain moved %d sessions, err %v; want 1, nil", moved, err)
			}
			if end == "lost" {
				<-gate.recvFailed
			} else {
				<-gate.closed // after the retire's grace for the parked call
			}
			close(gate.release)
			if err := <-straggler; err != nil {
				t.Fatalf("straggler on the replaced peer: %v", err)
			}
			if n, d := f.client.Surrogates(), f.client.Disconnects(); n != 1 || d != 0 {
				t.Fatalf("after the straggler: %d surrogates, %d disconnects; want 1, 0 (the replacement was torn down)", n, d)
			}
			f.append(t) // same counter, new home
			if n := f.s2.Sessions(); n != 1 {
				t.Fatalf("s2 holds %d sessions, want 1", n)
			}
		})
	}
}

// TestHandoffAckOutlivesOldConnection pins the retire order of a handed-off
// connection: it may close only after the serve running the handoff
// handler has written its acknowledgment. The ack is parked inside the
// old transport's Send; the retire must sit that out. Closing under it
// made the old surrogate read EOF, file the handoff under "the client
// left" and report "drain moved 0 sessions" with a nil error for a
// handoff the client had completed.
func TestHandoffAckOutlivesOldConnection(t *testing.T) {
	f, gate := gatedFixture(t)
	gate.hold = func(m *remote.Message) bool { return m.Reply && m.Kind == remote.MsgSnapshot }

	type result struct {
		moved int
		err   error
	}
	drained := make(chan result, 1)
	go func() {
		moved, err := f.s1.Drain(context.Background(), f.addr2)
		drained <- result{moved, err}
	}()
	<-gate.parked
	// A negative has no event to wait on: give a premature close a bounded
	// window to show itself, then let the ack go.
	select {
	case <-gate.closed:
		t.Error("old connection closed while its handoff ack was still unwritten")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate.release)
	if r := <-drained; r.err != nil || r.moved != 1 {
		t.Fatalf("drain moved %d sessions, err %v; want 1, nil", r.moved, r.err)
	}
	if st := f.s1.Stats(); st.Drained != 1 || st.DrainAborted != 0 {
		t.Fatalf("s1 stats %+v, want Drained 1, DrainAborted 0", st)
	}
	f.append(t)
}

// TestDrainAbortedByDepartingClientIsCounted covers the swallow that
// remains: a client whose connection really dies mid-handoff (here, inside
// the handoff's own dial) is not an error the drain reports — the session
// is reaped — but it is counted and traced.
func TestDrainAbortedByDepartingClientIsCounted(t *testing.T) {
	var gate *gateTransport
	f, gate := gatedFixture(t, WithDialer(func(context.Context, string) (remote.Transport, error) {
		_ = gate.Transport.Close() // the link dies under the transfer
		return nil, errors.New("unreachable")
	}))
	moved, err := f.s1.Drain(context.Background(), f.addr2)
	if err != nil || moved != 0 {
		t.Fatalf("drain moved %d, err %v; want 0, nil (the client left)", moved, err)
	}
	if st := f.s1.Stats(); st.DrainAborted != 1 || st.Drained != 0 {
		t.Fatalf("s1 stats %+v, want DrainAborted 1, Drained 0", st)
	}
	failed := 0
	for _, sp := range f.s1.opts.tracer.Events() {
		if sp.Kind == telemetry.SpanDrain && sp.Err {
			failed++
		}
	}
	if failed != 1 {
		t.Fatalf("tracer holds %d failed drain spans, want 1", failed)
	}
}

// TestOffloadRecordsWhatMovedBeforeAFailure: with two surrogates and the
// second refusing its share, the classes already moved to the first must
// still be on the books — OffloadedClasses names them and Recall brings
// them home — even though Offload as a whole reports the failure.
func TestOffloadRecordsWhatMovedBeforeAFailure(t *testing.T) {
	reg := demoRegistry(t)
	s1, s2 := NewSurrogate(reg, WithHeap(8<<20)), NewSurrogate(reg, WithHeap(8<<20))
	client := NewClient(reg, WithHeap(2<<20))
	defer func() {
		_ = client.Close()
		_ = s1.Close()
		_ = s2.Close()
	}()
	refused := errors.New("injected: migration refused")
	for i, s := range []*Surrogate{s1, s2} {
		ct, st := remote.NewChannelPair()
		s.Serve(st)
		gate := newGateTransport(ct)
		if i == 1 {
			gate.fail = func(m *remote.Message) error {
				if m.Kind == remote.MsgMigrate {
					return refused
				}
				return nil
			}
		}
		if err := client.Attach(gate); err != nil {
			t.Fatal(err)
		}
	}

	docAndChunks(t, client)

	if _, err := client.Offload(); !errors.Is(err, refused) {
		t.Fatalf("offload err = %v, want the second surrogate's refusal", err)
	}
	if s1.Heap().Live == 0 {
		t.Fatal("nothing reached the first surrogate: the test lost its premise")
	}
	placed := client.OffloadedClasses()
	if len(placed) == 0 {
		t.Fatal("OffloadedClasses omits the classes already moved to the first surrogate")
	}
	n, _, err := client.Recall(placed)
	if err != nil || n == 0 {
		t.Fatalf("recall of %v brought %d objects home, err %v", placed, n, err)
	}
	if got := client.OffloadedClasses(); len(got) != 0 {
		t.Fatalf("after recall, still on the books: %v", got)
	}
}

// TestServeRacingCloseBalancesLedger replays the ordering in which a
// connection's first request arrives before Serve has filed the session
// and Close runs in between: the request must wait for the filing and
// then be refused, leaving the ledger balanced. (It used to be admitted
// at once; Close zeroed the count, Serve's rollback decremented it again,
// and Sessions() read −1.)
func TestServeRacingCloseBalancesLedger(t *testing.T) {
	s := NewSurrogate(demoRegistry(t), WithSessionQuota(1<<20))
	sess := &session{vm: s.idle, quota: 1 << 20, ready: make(chan struct{})}
	verdict := make(chan error, 1)
	go func() { verdict <- s.gate(sess, remote.MsgAttach) }() // the early request
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	close(sess.ready) // Serve, catching up, finds the surrogate closed
	if err := <-verdict; err == nil {
		t.Fatal("a closed surrogate admitted a session")
	}
	s.mu.Lock()
	committed := s.committed
	s.mu.Unlock()
	if st := s.Stats(); st.Active != 0 || committed != 0 {
		t.Fatalf("after close: Active %d, committed %d; want 0, 0", st.Active, committed)
	}
}

// TestOffloadShipsItsCollectionsReleases: the collection that follows an
// offload frees the stubs of migrated objects that only other migrated
// objects reference, and their releases — fewer than a release batch —
// ship when it ends: the surrogate's pins on those objects drop with no
// further call from the client.
func TestOffloadShipsItsCollectionsReleases(t *testing.T) {
	const chunks = 8
	reg := demoRegistry(t)
	client, surrogate, err := NewLocalPair(reg, []Option{WithHeap(2 << 20)}, []Option{WithHeap(8 << 20)})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = client.Close()
		_ = surrogate.Close()
	}()
	th := client.Thread()
	var head ObjectID
	for i := 0; i < chunks; i++ {
		id, err := th.New("Chunk", 160<<10)
		if err != nil {
			t.Fatal(err)
		}
		if err := th.SetField(id, "next", RefOf(head)); err != nil {
			t.Fatal(err)
		}
		head = id
		client.VM().SetRoot("chunks", head)
	}
	th.ClearTemps()
	rep, err := client.Offload()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Classes, "Chunk") {
		t.Fatalf("the offload moved %v, not the chunks: the test lost its premise", rep.Classes)
	}
	// Only the head's stub is still referenced on the client, so only the
	// head keeps a pin on the surrogate.
	pinned := func() (n int) {
		for _, o := range surrogate.VM().ExportSnapshot().Objects {
			if o.Class == "Chunk" && o.Exported > 0 {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(10 * time.Second)
	for pinned() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d chunks still pinned on the surrogate after the offload's collection, want only the head", pinned(), chunks)
		}
		time.Sleep(time.Millisecond)
	}
}
