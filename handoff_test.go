package aide

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/remote"
	"aide/internal/vm"
)

// handoffFixture stands up a client attached to one TCP surrogate with a
// second TCP surrogate waiting as the drain destination, and one
// offloaded Doc the appender can drive.
type handoffFixture struct {
	client   *Client
	s1, s2   *Surrogate
	addr1    string
	addr2    string
	th       *Thread
	doc      ObjectID
	expected int64 // the Doc counter's current value
}

func newHandoffFixture(t *testing.T, clientOpts ...Option) *handoffFixture {
	t.Helper()
	return newHandoffFixtureOpts(t, clientOpts, nil)
}

func newHandoffFixtureOpts(t *testing.T, clientOpts, surrogateOpts []Option) *handoffFixture {
	t.Helper()
	reg := demoRegistry(t)
	f := &handoffFixture{
		s1: NewSurrogate(reg, surrogateOpts...),
		s2: NewSurrogate(reg, surrogateOpts...),
	}
	var err error
	if f.addr1, err = f.s1.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen s1: %v", err)
	}
	if f.addr2, err = f.s2.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("listen s2: %v", err)
	}
	opts := append([]Option{WithHeap(1 << 20), WithCallTimeout(5 * time.Second)}, clientOpts...)
	f.client = NewClient(reg, opts...)
	t.Cleanup(func() {
		_ = f.client.Close()
		_ = f.s1.Close()
		_ = f.s2.Close()
	})
	if err := f.client.AttachTCP(f.addr1); err != nil {
		t.Fatalf("attach: %v", err)
	}
	f.offloadDoc(t)
	return f
}

// offloadDoc creates the fixture's Doc on the attached client and offloads
// it, after one interaction so the monitor has a graph to partition.
func (f *handoffFixture) offloadDoc(t *testing.T) {
	t.Helper()
	var err error
	f.th = f.client.Thread()
	if f.doc, err = f.th.New("Doc", 300<<10); err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	f.client.VM().SetRoot("doc", f.doc)
	f.append(t)
	if _, err := f.client.Offload(); err != nil {
		t.Fatalf("offload: %v", err)
	}
}

// append adds 2 to the Doc counter and asserts the exactly-once
// cumulative sequence.
func (f *handoffFixture) append(t *testing.T) {
	t.Helper()
	if err := f.tryAppend(); err != nil {
		t.Fatal(err)
	}
}

func (f *handoffFixture) tryAppend() error {
	v, err := f.th.Invoke(f.doc, "append", Int(2))
	if err != nil {
		return fmt.Errorf("append: %w", err)
	}
	f.expected += 2
	if v.I != f.expected {
		return fmt.Errorf("append returned %d, want %d (lost or duplicated an increment)", v.I, f.expected)
	}
	return nil
}

// TestLiveHandoffBetweenTCPSurrogates drains a surrogate while the
// application keeps calling: the session must move to the second
// surrogate with the client observing no errors and no lost or repeated
// increments — only latency.
func TestLiveHandoffBetweenTCPSurrogates(t *testing.T) {
	f := newHandoffFixture(t)

	// Hammer appends from a background goroutine so calls are in flight
	// when the drain hits; each one must see the exact cumulative value.
	stop := make(chan struct{})
	done := make(chan error, 1)
	var appends atomic.Int64
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := f.tryAppend(); err != nil {
				done <- err
				return
			}
			appends.Add(1)
		}
	}()
	// awaitAppends blocks until the appender has completed n more calls
	// (or has died, which the caller then reports).
	awaitAppends := func(n int64) {
		t.Helper()
		for target := appends.Load() + n; appends.Load() < target; {
			select {
			case err := <-done:
				t.Fatalf("appender: %v", err)
			default:
				runtime.Gosched()
			}
		}
	}

	awaitAppends(50) // the appender is in steady state against s1
	moved, err := f.s1.Drain(context.Background(), f.addr2)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if moved != 1 {
		t.Fatalf("drain moved %d sessions, want 1", moved)
	}
	awaitAppends(50) // post-handoff appends have landed on s2
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("appender during drain: %v", err)
	}

	if n := f.client.Handoffs(); n != 1 {
		t.Fatalf("client completed %d handoffs, want 1", n)
	}
	if st := f.s1.Stats(); st.Drained != 1 {
		t.Fatalf("s1 drained %d sessions, want 1", st.Drained)
	}
	if n := f.s1.Sessions(); n != 0 {
		t.Fatalf("s1 still holds %d sessions after drain", n)
	}
	if n := f.s2.Sessions(); n != 1 {
		t.Fatalf("s2 holds %d sessions after drain, want 1", n)
	}
	// The moved session must serve the same counter: state survived.
	f.append(t)
	if n := f.client.Surrogates(); n != 1 {
		t.Fatalf("client sees %d surrogates after handoff, want 1", n)
	}
}

// TestDrainFailureKeepsSessionServing points a drain at an address
// nothing listens on: the handoff must fail, the session must resume in
// place, and the application must keep running against the original
// surrogate.
func TestDrainFailureKeepsSessionServing(t *testing.T) {
	f := newHandoffFixture(t)

	if _, err := f.s1.Drain(context.Background(), "127.0.0.1:1"); err == nil {
		t.Fatal("drain to a dead destination reported success")
	}
	if st := f.s1.Stats(); st.Drained != 0 {
		t.Fatalf("s1 drained %d sessions despite the failed handoff", st.Drained)
	}
	if n := f.client.Handoffs(); n != 0 {
		t.Fatalf("client counted %d handoffs despite the failure", n)
	}
	// The session recovered: appends keep the exactly-once sequence on s1.
	f.append(t)
	f.append(t)
	if n := f.s1.Sessions(); n != 1 {
		t.Fatalf("s1 holds %d sessions after the failed drain, want 1", n)
	}
}

// drainDirective dials addr as a throwaway directive connection (the
// shape fleet.TCPTarget.DrainSessions uses) and sends a wire drain order
// carrying key.
func drainDirective(t *testing.T, addr, dest string, key []byte) error {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial directive connection: %v", err)
	}
	v := vm.New(vm.NewRegistry(), vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 16})
	peer := remote.NewPeer(v, remote.NewConnTransport(conn), remote.Options{Workers: 1})
	defer func() { _ = peer.Close() }()
	return peer.DrainRemote(context.Background(), dest, key)
}

// TestDrainDirectiveAuthorization pins the wire drain directive's
// credential check: a surrogate honors SnapDrain only from a sender
// presenting its WithDrainKey secret — any connected tenant reaches the
// directive handler, and an unauthenticated drain would let one tenant
// exfiltrate every other tenant's session to an address of its choosing.
func TestDrainDirectiveAuthorization(t *testing.T) {
	f := newHandoffFixtureOpts(t, nil, []Option{WithDrainKey("fleet-secret")})

	if err := drainDirective(t, f.addr1, f.addr2, nil); err == nil {
		t.Fatal("key-less drain directive accepted")
	}
	if err := drainDirective(t, f.addr1, f.addr2, []byte("wrong")); err == nil {
		t.Fatal("wrong-key drain directive accepted")
	}
	if st := f.s1.Stats(); st.Drained != 0 {
		t.Fatalf("s1 drained %d sessions on unauthorized directives", st.Drained)
	}
	if n := f.client.Handoffs(); n != 0 {
		t.Fatalf("client completed %d handoffs on unauthorized directives", n)
	}
	f.append(t) // the session never moved and keeps serving

	// The fleet credential is honored and the drain completes end to end.
	if err := drainDirective(t, f.addr1, f.addr2, []byte("fleet-secret")); err != nil {
		t.Fatalf("authorized drain directive: %v", err)
	}
	if st := f.s1.Stats(); st.Drained != 1 {
		t.Fatalf("s1 drained %d sessions, want 1", st.Drained)
	}
	if n := f.s2.Sessions(); n != 1 {
		t.Fatalf("s2 holds %d sessions after the drain, want 1", n)
	}
	f.append(t) // same counter, new home
}

// TestDrainDirectiveRefusedWithoutKey pins the default: a surrogate
// constructed without WithDrainKey refuses every wire drain directive,
// whatever credential it presents. Only the local Surrogate.Drain API
// can order a drain then.
func TestDrainDirectiveRefusedWithoutKey(t *testing.T) {
	f := newHandoffFixture(t)
	if err := drainDirective(t, f.addr1, f.addr2, []byte("anything")); err == nil {
		t.Fatal("wire drain directive accepted by a surrogate with no drain key")
	}
	if st := f.s1.Stats(); st.Drained != 0 {
		t.Fatalf("s1 drained %d sessions, want 0", st.Drained)
	}
	f.append(t)
	// The local API still drains.
	if _, err := f.s1.Drain(context.Background(), f.addr2); err != nil {
		t.Fatalf("local drain: %v", err)
	}
	f.append(t)
}

// TestAbortedHandoffWakesParkedCallers pins the abort path's wake-up:
// application calls that bounced off the draining gate and parked must
// resume as soon as the handoff aborts and the session resumes in place
// — not sit out the full handoff timeout and surface ErrDrained.
func TestAbortedHandoffWakesParkedCallers(t *testing.T) {
	f := newHandoffFixture(t,
		WithHandoffTimeout(30*time.Second),
		WithDialer(func(ctx context.Context, addr string) (remote.Transport, error) {
			// Hold the handoff open long enough for appends to bounce and
			// park, then fail it.
			time.Sleep(150 * time.Millisecond)
			return nil, errors.New("handoff destination unreachable")
		}),
	)

	stop := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				done <- nil
				return
			default:
			}
			if err := f.tryAppend(); err != nil {
				done <- err
				return
			}
		}
	}()
	time.Sleep(30 * time.Millisecond) // let the appender reach steady state

	start := time.Now()
	if _, err := f.s1.Drain(context.Background(), f.addr2); err == nil {
		t.Fatal("drain succeeded despite the failing dialer")
	}
	time.Sleep(100 * time.Millisecond) // woken appends land in place
	close(stop)
	if err := <-done; err != nil {
		t.Fatalf("appender during aborted handoff: %v", err)
	}
	// Well under the 30 s handoff timeout: the abort woke the parked
	// calls instead of leaving them to time out.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("appender resumed only after %v; parked callers were not woken", elapsed)
	}
	if n := f.client.Handoffs(); n != 0 {
		t.Fatalf("client counted %d handoffs despite the abort", n)
	}
	if n := f.s1.Sessions(); n != 1 {
		t.Fatalf("s1 holds %d sessions after the aborted handoff, want 1", n)
	}
	f.append(t) // exactly-once sequence intact, still served by s1
}

// TestDrainEmptyDestinationRejected covers the argument check.
func TestDrainEmptyDestinationRejected(t *testing.T) {
	reg := demoRegistry(t)
	s := NewSurrogate(reg)
	defer func() { _ = s.Close() }()
	if _, err := s.Drain(context.Background(), ""); err == nil {
		t.Fatal("drain with empty destination succeeded")
	}
}

// TestWaitHandoffRounds pins the drain handler's round detection: a
// bounce from the peer a completed handoff replaced is a straggler and
// retries immediately, while a bounce from the peer that handoff
// installed means the new home is draining — the caller must park on a
// fresh round and wake only when that round completes (or time out).
func TestWaitHandoffRounds(t *testing.T) {
	reg := demoRegistry(t)
	c := NewClient(reg, WithHeap(1<<20), WithHandoffTimeout(50*time.Millisecond))
	defer func() { _ = c.Close() }()

	// Inert peers: only their identity matters, no method is ever called.
	oldPeer, newPeer := new(remote.Peer), new(remote.Peer)
	c.slots.openRound(0)
	c.slots.closeRound(0, newPeer)

	// A straggler bounced by the replaced peer retries immediately.
	if !c.waitHandoff(0, oldPeer) {
		t.Fatal("straggler of a completed handoff did not retry")
	}
	// So does one whose peer identity was lost.
	if !c.waitHandoff(0, nil) {
		t.Fatal("identity-less straggler did not retry")
	}

	// A bounce from the installed home opens a new round: the caller
	// parks until that round's handoff lands.
	released := make(chan bool, 1)
	go func() { released <- c.waitHandoff(0, newPeer) }()
	// The parker must have replaced the stale done entry with a fresh
	// open round before blocking.
	for deadline := time.Now().Add(time.Second); !c.slots.roundOpen(0) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	select {
	case r := <-released:
		t.Fatalf("parker returned %v before the new round completed", r)
	default:
	}
	c.slots.closeRound(0, oldPeer)
	if !<-released {
		t.Fatal("parker did not retry after the new round completed")
	}

	// With no handoff arriving, a new-round park gives up at the
	// handoff timeout and surfaces the drained error.
	// (The last completed round installed oldPeer.)
	if c.waitHandoff(0, oldPeer) {
		t.Fatal("abandoned round did not time out")
	}
}
