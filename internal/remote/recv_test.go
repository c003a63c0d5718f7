package remote

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/vm"
)

// The tests of who reads the connection and who serves a request
// (recv.go). They assert counts and outcomes, never durations; the
// watchdog only turns a hang into a failure.

const hangAfter = 10 * time.Second

// within fails the test if f has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still running after %v", what, d)
	}
}

// recvRegistry is the application of these tests: Echo returns its
// argument (held back while hold is non-nil and the argument is the
// integer 1), and Here/There bounce a countdown between the two VMs.
func recvRegistry(hold chan struct{}) *vm.Registry {
	reg := vm.NewRegistry()
	mustRegister(reg, vm.ClassSpec{Name: "Echo", Fields: []string{"state"}, Methods: []vm.MethodSpec{
		{Name: "echo", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
			if hold != nil && args[0].Kind == vm.KindInt && args[0].I == 1 {
				<-hold
			}
			return args[0], nil
		}},
	}})
	bounce := func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
		if args[1].I == 0 {
			return vm.Int(0), nil
		}
		ret, err := th.Invoke(args[0].Ref, "bounce", vm.RefOf(self), vm.Int(args[1].I-1))
		if err != nil {
			return vm.Nil(), err
		}
		return vm.Int(ret.I + 1), nil
	}
	for _, name := range []string{"Here", "There"} {
		mustRegister(reg, vm.ClassSpec{Name: name, Methods: []vm.MethodSpec{{Name: "bounce", Body: bounce}}})
	}
	return reg
}

// recvPlatform is two VMs over the given transports with class cls
// offloaded: one client-side object of it, now a stub.
func recvPlatform(t *testing.T, reg *vm.Registry, tc, ts Transport, opts Options, cls string) (client *vm.VM, pc, ps *Peer, obj vm.ObjectID) {
	t.Helper()
	client = vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 64 << 20})
	pc = NewPeer(client, tc, opts)
	ps = NewPeer(surrogate, ts, opts)
	t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })
	obj, err := client.NewThread().New(cls, 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("obj", obj)
	if _, _, err := pc.Offload([]string{cls}); err != nil {
		t.Fatal(err)
	}
	return client, pc, ps, obj
}

// evictReceiver makes lone calls until the peer's background receiver has
// given way to them, the state a connection is in after a burst of calls.
func evictReceiver(t *testing.T, p *Peer) {
	t.Helper()
	for p.rd.alone.Load() < aloneCalls || p.rd.bg.Load() {
		if err := p.Ping(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMutualRecursionDeeperThanWorkers: execution passes back and forth
// (paper §3.2) far deeper than either pool. Every level is served by the
// goroutine that was waiting for it, so nesting costs stack; with one
// parked worker per level per side this hung at depth ~2×Workers.
func TestMutualRecursionDeeperThanWorkers(t *testing.T) {
	const depth = 64
	tc, ts := NewChannelPair()
	client, pc, ps, there := recvPlatform(t, recvRegistry(nil), tc, ts, Options{Workers: 2}, "There")
	th := client.NewThread()
	here, err := th.New("Here", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("here", here)
	within(t, 3*time.Second, "mutual recursion", func() {
		ret, err := th.Invoke(there, "bounce", vm.RefOf(here), vm.Int(depth))
		if err != nil || ret.I != depth {
			t.Errorf("bounce(%d) = %v, %v; want %d", depth, ret, err, depth)
		}
	})
	if cs, ss := pc.Stats(), ps.Stats(); cs.QueueSpills+ss.QueueSpills != 0 {
		t.Errorf("recursion spilled %d+%d serves off the reading goroutines, want none", cs.QueueSpills, ss.QueueSpills)
	}
}

// plainTransport hides whatever else its Transport can do: the peer sees
// exactly Send, Recv and Close, as it does over a test's own fake.
type plainTransport struct{ Transport }

// TestReadOwnershipNonInterruptibleTransport: over a transport that cannot
// interrupt Recv the peer keeps one dedicated receiver — nobody else ever
// reads, nothing is served in place — and everything still works, deep
// recursion included (the queue spills instead of parking it).
func TestReadOwnershipNonInterruptibleTransport(t *testing.T) {
	const depth = 16
	tc, ts := NewChannelPair()
	client, pc, ps, there := recvPlatform(t, recvRegistry(nil), plainTransport{tc}, plainTransport{ts}, Options{Workers: 2, CallTimeout: hangAfter}, "There")
	th := client.NewThread()
	here, err := th.New("Here", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("here", here)
	within(t, hangAfter, "mutual recursion", func() {
		ret, err := th.Invoke(there, "bounce", vm.RefOf(here), vm.Int(depth))
		if err != nil || ret.I != depth {
			t.Errorf("bounce(%d) = %v, %v; want %d", depth, ret, err, depth)
		}
	})
	for _, st := range []Stats{pc.Stats(), ps.Stats()} {
		if st.SelfReads+st.InlineServes+st.ReaderYields != 0 {
			t.Errorf("dedicated receiver shared its work: %d self reads, %d inline serves, %d yields", st.SelfReads, st.InlineServes, st.ReaderYields)
		}
	}
	if pc.Stats().QueueSpills+ps.Stats().QueueSpills == 0 {
		t.Error("recursion deeper than both pools finished without a spill")
	}
}

// tcpConns is a connected loopback pair.
func tcpConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- c
	}()
	if client, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		t.Fatal(err)
	}
	if server = <-accepted; server == nil {
		t.FailNow()
	}
	return client, server
}

// TestInlineServeCounts counts the hops of a lone caller's round trips
// over TCP: every reply is read by the goroutine waiting for it, every
// request served by the goroutine that read it, and the background
// receiver gives way once, not once a call.
func TestInlineServeCounts(t *testing.T) {
	const calls = 10000
	cc, sc := tcpConns(t)
	client, pc, ps, echo := recvPlatform(t, recvRegistry(nil), NewConnTransport(cc), NewConnTransport(sc), Options{Workers: 2}, "Echo")
	th := client.NewThread()
	evictReceiver(t, pc)
	c0, s0 := pc.Stats(), ps.Stats()
	payload := []byte("sixteen byte arg")
	for i := 0; i < calls; i++ {
		ret, err := th.Invoke(echo, "echo", vm.Blob(payload))
		if err != nil || !bytes.Equal(ret.Bytes, payload) {
			t.Fatalf("echo %d = %v, %v", i, ret, err)
		}
	}
	c1, s1 := pc.Stats(), ps.Stats()
	if sent, self := c1.RequestsSent-c0.RequestsSent, c1.SelfReads-c0.SelfReads; sent != calls || self != sent {
		t.Errorf("caller read %d of its %d replies itself (want %d of %d)", self, sent, calls, calls)
	}
	if served, inline := s1.RequestsServed-s0.RequestsServed, s1.InlineServes-s0.InlineServes; served != calls || inline != served {
		t.Errorf("%d of %d requests served where they were read (want %d of %d)", inline, served, calls, calls)
	}
	if y := c1.ReaderYields + s1.ReaderYields; y > 4 {
		t.Errorf("%d receiver yields for one thread's %d back-to-back calls, want a handful", y, calls)
	}
	if n := c1.QueueSpills + s1.QueueSpills; n != 0 {
		t.Errorf("%d queue spills, want none", n)
	}
}

// TestInlineServeNeverBlocksOnQueue: with the one worker of each side
// parked in a recall (the surrogate's in the migration it pushes, held up
// in the client's gate) the old receive loop blocked on the full queue and
// delivered no reply again. Now what finds no idle worker spills, and the
// data path never touches the queue at all.
func TestInlineServeNeverBlocksOnQueue(t *testing.T) {
	const recalls = 2
	gateOpen := make(chan struct{})
	reg := recvRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 64 << 20})
	tc, ts := NewChannelPair()
	copts := Options{Workers: 1, Gate: func(k MsgKind) error {
		if k == MsgMigrate {
			<-gateOpen
		}
		return nil
	}}
	pc, ps := NewPeer(client, tc, copts), NewPeer(surrogate, ts, Options{Workers: 1})
	t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })
	th := client.NewThread()
	var objs []vm.ObjectID
	for _, cls := range []string{"Echo", "Here", "There"} {
		obj, err := th.New(cls, 64)
		if err != nil {
			t.Fatal(err)
		}
		client.SetRoot(cls, obj)
		objs = append(objs, obj)
	}
	if _, _, err := pc.Offload([]string{"Echo", "Here", "There"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < recalls; i++ {
		wg.Add(1)
		go func(cls string) {
			defer wg.Done()
			if _, _, err := pc.Recall([]string{cls}); err != nil {
				t.Errorf("recall %s: %v", cls, err)
			}
		}([]string{"Here", "There"}[i])
	}
	// Every recall is being served (each parked in its migration, or with
	// nothing left to move) before the data path is tried.
	for ps.Stats().RequestsServed < int64(1+recalls) {
		time.Sleep(time.Millisecond)
	}
	within(t, hangAfter, "invokes behind a saturated pool", func() {
		for i := 0; i < 100; i++ {
			if ret, err := th.Invoke(objs[0], "echo", vm.Int(int64(i))); err != nil || ret.I != int64(i) {
				t.Errorf("echo %d = %v, %v", i, ret, err)
				return
			}
		}
	})
	close(gateOpen)
	within(t, hangAfter, "recalls", wg.Wait)
	if ps.Stats().QueueSpills == 0 {
		t.Errorf("%d recalls against one worker and no spill", recalls)
	}
}

// TestReadOwnershipNoConvoy: the caller that reads the connection is
// waiting for a reply that does not come; a second caller's reply does.
// The reader routes it and the second call returns first — it does not
// queue behind the reader's wait.
func TestReadOwnershipNoConvoy(t *testing.T) {
	hold := make(chan struct{})
	tc, ts := NewChannelPair()
	client, pc, _, echo := recvPlatform(t, recvRegistry(hold), tc, ts, Options{Workers: 2}, "Echo")
	evictReceiver(t, pc)
	slowDone := make(chan error, 1)
	go func() {
		ret, err := client.NewThread().Invoke(echo, "echo", vm.Int(1)) // held
		if err == nil && ret.I != 1 {
			err = errors.New("held echo returned the wrong value")
		}
		slowDone <- err
	}()
	for pc.rd.waiting.Load() == 0 || pc.rd.bg.Load() { // the slow caller is the reader
		time.Sleep(time.Millisecond)
	}
	within(t, hangAfter, "second caller", func() {
		if ret, err := client.NewThread().Invoke(echo, "echo", vm.Int(2)); err != nil || ret.I != 2 {
			t.Errorf("echo(2) = %v, %v", ret, err)
		}
	})
	select {
	case err := <-slowDone:
		t.Fatalf("held call returned (%v) before it was released", err)
	default:
	}
	close(hold)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestReadOwnershipAbandonedWhileReading: the deadline and the context of
// a call fire while its own goroutine is the one blocked in Recv. The call
// returns the right error, the connection is degraded but usable, and the
// reply that arrives afterwards is an orphan, counted once.
func TestReadOwnershipAbandonedWhileReading(t *testing.T) {
	for _, how := range []string{"deadline", "context"} {
		t.Run(how, func(t *testing.T) {
			hold := make(chan struct{})
			opts := Options{Workers: 2, DisconnectAfter: -1}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if how == "deadline" {
				opts.CallTimeout = 20 * time.Millisecond
			}
			cc, sc := tcpConns(t)
			_, pc, _, echo := recvPlatform(t, recvRegistry(hold), NewConnTransport(cc), NewConnTransport(sc), opts, "Echo")
			evictReceiver(t, pc)
			o := pc.local.Object(echo)
			args, err := pc.local.EncodeOutgoingAll(pc.idx, []vm.Value{vm.Int(1)})
			if err != nil {
				t.Fatal(err)
			}
			if how == "context" {
				go func() {
					for pc.rd.waiting.Load() == 0 || pc.rd.bg.Load() {
						time.Sleep(time.Millisecond)
					}
					cancel()
				}()
			}
			within(t, hangAfter, "abandoned call", func() {
				_, err := pc.Call(ctx, &Message{Kind: MsgInvoke, Obj: o.PeerID, Method: "echo", Args: args})
				want := ErrCallTimeout
				if how == "context" {
					want = context.Canceled
				}
				if !errors.Is(err, want) {
					t.Errorf("held call returned %v, want %v", err, want)
				}
			})
			if how == "deadline" {
				if st := pc.Stats(); st.CallTimeouts != 1 || pc.State() != StateDegraded {
					t.Errorf("after the timeout: %d timeouts, state %v; want 1, degraded", st.CallTimeouts, pc.State())
				}
			}
			close(hold) // the reply nobody waits for is sent now
			within(t, hangAfter, "late reply", func() {
				for pc.Stats().OrphanReplies == 0 {
					if err := pc.Ping(); err != nil {
						t.Error(err)
						return
					}
				}
			})
			if err := pc.Ping(); err != nil {
				t.Fatal(err)
			}
			if got := pc.Stats().OrphanReplies; got != 1 {
				t.Errorf("late reply counted %d times, want 1", got)
			}
			if pc.State() != StateHealthy {
				t.Errorf("state %v after clean round trips, want healthy", pc.State())
			}
		})
	}
}

// TestReadOwnershipIdleConnectionStillAnswers: after a burst of calls the
// connection's last reader was a caller, now gone. A ping and a release
// batch from the far side find it unread — and are handled once the lazy
// resume notices (within 2×lazyResume of the burst; the test only waits).
func TestReadOwnershipIdleConnectionStillAnswers(t *testing.T) {
	client, surrogate, pc, ps := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: 4, Now: fixedClock()})
	objs, stubs := pinnedObjects(t, client, surrogate, pc, 4)
	evictReceiver(t, ps) // the surrogate calls, then falls silent
	within(t, hangAfter, "ping to an unread connection", func() {
		if err := pc.Ping(); err != nil {
			t.Error(err)
		}
	})
	evictReceiver(t, ps)
	for _, stub := range stubs {
		if err := client.FreeObject(stub); err != nil {
			t.Fatal(err)
		}
	}
	within(t, hangAfter, "release batch to an unread connection", func() {
		for ps.Stats().ReleasesReceived < int64(len(objs)) {
			time.Sleep(time.Millisecond)
		}
	})
	for i, obj := range objs {
		if got := surrogate.ExportCount(obj); got != 0 {
			t.Errorf("object %d export count = %d, want 0", i, got)
		}
	}
}

// TestReadOwnershipServingSideKeepsReceiver: a call from the side that has
// been serving requests (a health probe, a handoff push) evicts its
// receiver like any lone caller's — and starts another the moment it has
// its reply, because that side's next request is not nested in any call of
// its own and would otherwise sit unread until the lazy resume.
func TestReadOwnershipServingSideKeepsReceiver(t *testing.T) {
	tc, ts := NewChannelPair()
	client, _, ps, echo := recvPlatform(t, recvRegistry(nil), tc, ts, Options{Workers: 2}, "Echo")
	th := client.NewThread()
	for round := 0; round < 32; round++ {
		if _, err := th.Invoke(echo, "echo", vm.Int(7)); err != nil { // served by the surrogate's receiver
			t.Fatal(err)
		}
		// The receiver is back from serving in place, and the worker that
		// adopted the migration is idle again (a busy one keeps callers
		// from evicting: askToYield).
		for !ps.rd.bg.Load() || int(ps.free.Load()) < cap(ps.requests) {
			time.Sleep(time.Millisecond)
		}
		ps.rd.alone.Store(aloneCalls) // the surrogate's next lone call evicts it
		if err := ps.Ping(); err != nil {
			t.Fatal(err)
		}
		if !ps.rd.bg.Load() {
			t.Fatalf("round %d: the serving side has no receiver after its own call returned", round)
		}
	}
	// The receiver may hand the ping its reply before it sees the request
	// to yield, and then stays; over 32 rounds it has also yielded.
	if ps.Stats().ReaderYields == 0 {
		t.Errorf("the surrogate's calls never evicted its receiver: nothing was exercised")
	}
}

// TestReadOwnershipCloseAfterCallerRead: the ledger of release_test.go with
// no receiver on the surrogate's side when the client's Close-time release
// batch arrives — its last reader was a caller. Close reads the stream to
// its end itself, so the batch is applied all the same.
func TestReadOwnershipCloseAfterCallerRead(t *testing.T) {
	const n = 3
	client, surrogate, pc, ps := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: 32, Now: fixedClock()})
	objs, stubs := pinnedObjects(t, client, surrogate, pc, n)
	evictReceiver(t, ps)
	for _, stub := range stubs {
		if err := client.FreeObject(stub); err != nil {
			t.Fatal(err)
		}
	}
	if err := pc.Close(); err != nil { // flushes the partial batch, then closes
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ps.Stats().ReleasesReceived; got != n {
		t.Errorf("surrogate ReleasesReceived = %d, want %d", got, n)
	}
	for i, obj := range objs {
		if got := surrogate.ExportCount(obj); got != 0 {
			t.Errorf("object %d export count = %d after Close, want 0", i, got)
		}
	}
}

// dribbleConn hands its reader one byte at a time while dribble is set —
// a frame that takes its time to arrive — and stalls it at the stallAt-th
// byte, announced on stalled, until release closes.
type dribbleConn struct {
	net.Conn
	dribble atomic.Bool
	n       int
	stallAt int
	stalled chan struct{}
	release chan struct{}
}

func (c *dribbleConn) Read(p []byte) (int, error) {
	if !c.dribble.Load() || len(p) == 0 {
		return c.Conn.Read(p)
	}
	if c.n++; c.n == c.stallAt {
		close(c.stalled)
		<-c.release
	}
	return c.Conn.Read(p[:1])
}

// TestReadOwnershipYieldIsFrameAtomic: a 64 KiB request is part-way into the
// client, one byte at a time, when a caller asks the background receiver
// reading it to yield. The interrupt must wait for the frame boundary: both
// the dribbled callback and the caller's own 64 KiB echo come back byte for
// byte, where a kicked read left the stream between two frames' bytes.
func TestReadOwnershipYieldIsFrameAtomic(t *testing.T) {
	cc, sc := tcpConns(t)
	dc := &dribbleConn{Conn: cc, stallAt: 1000, stalled: make(chan struct{}), release: make(chan struct{})}
	client, pc, ps, echo := recvPlatform(t, recvRegistry(nil), NewConnTransport(dc), NewConnTransport(sc), Options{Workers: 2}, "Echo")
	// A client-resident Echo the surrogate calls back with 64 KiB.
	th := client.NewThread()
	home, err := th.New("Echo", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("home", home)
	wv, err := client.EncodeOutgoing(pc.idx, vm.RefOf(home))
	if err != nil {
		t.Fatal(err)
	}
	homeAtSurrogate, err := ps.local.DecodeIncoming(ps.idx, wv)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("frame-atomic "), 64<<10/13)

	pc.rd.alone.Store(aloneCalls) // the next lone call evicts the receiver
	dc.dribble.Store(true)
	back := make(chan error, 1)
	go func() {
		ret, err := ps.local.NewThread().Invoke(homeAtSurrogate.Ref, "echo", vm.Blob(big))
		if err == nil && !bytes.Equal(ret.Bytes, big) {
			err = errors.New("dribbled callback came back changed")
		}
		back <- err
	}()
	<-dc.stalled // the receiver is a thousand bytes into the frame
	served := ps.Stats().RequestsServed
	echoed := make(chan error, 1)
	go func() {
		ret, err := th.Invoke(echo, "echo", vm.Blob(big))
		if err == nil && !bytes.Equal(ret.Bytes, big) {
			err = errors.New("echo across the yield came back changed")
		}
		echoed <- err
	}()
	// The caller asks before it sends, so once the surrogate has its
	// request the interrupt has landed, mid-frame. Let the rest arrive.
	for ps.Stats().RequestsServed == served {
		time.Sleep(time.Millisecond)
	}
	close(dc.release)
	for _, c := range []chan error{echoed, back} {
		select {
		case err := <-c:
			if err != nil {
				t.Error(err)
			}
		case <-time.After(hangAfter):
			t.Fatal("a call never returned: the stream lost its framing")
		}
	}
	if pc.Stats().ReaderYields == 0 {
		t.Error("the receiver was never asked to yield: the test did not exercise the interrupt")
	}
}

// TestTransportInterruptRecv pins the RecvInterrupter contract on both
// built-in transports: an interrupt wakes a blocked Recv, is kept for the
// next Recv when none is blocked, collapses with others, and loses no frame.
func TestTransportInterruptRecv(t *testing.T) {
	ca, cb := NewChannelPair()
	ta, tb := tcpTransportPair(t)
	for name, pair := range map[string][2]Transport{"chan": {ca, cb}, "tcp": {ta, tb}} {
		t.Run(name, func(t *testing.T) {
			a, b := pair[0], pair[1]
			ri := b.(RecvInterrupter)
			got := make(chan error, 1)
			go func() { _, err := b.Recv(); got <- err }()
			for ri.InterruptRecv(); ; ri.InterruptRecv() { // until the blocked Recv saw one
				select {
				case err := <-got:
					if err != ErrRecvInterrupted {
						t.Fatalf("blocked Recv returned %v, want ErrRecvInterrupted", err)
					}
				case <-time.After(time.Millisecond):
					continue
				}
				break
			}
			if err := a.Send(fullMessage()); err != nil {
				t.Fatal(err)
			}
			var m *Message
			var err error
			for m == nil { // at most one leftover interrupt, never a lost frame
				if m, err = b.Recv(); err != nil && err != ErrRecvInterrupted {
					t.Fatal(err)
				}
			}
			checkFullMessage(t, m)
			ri.InterruptRecv()
			ri.InterruptRecv()
			if _, err := b.Recv(); err != ErrRecvInterrupted {
				t.Fatalf("Recv after two interrupts returned %v, want ErrRecvInterrupted", err)
			}
			if err := a.Send(fullMessage()); err != nil {
				t.Fatal(err)
			}
			if m, err = b.Recv(); err != nil {
				t.Fatalf("Recv after the collapsed interrupts: %v", err)
			}
			checkFullMessage(t, m)
		})
	}
}

// TestInlineServeSpillLimit: spilling is bounded. With the one worker and
// spillLimit spill goroutines all held in a serve, the next request is
// served by the reader itself — no goroutine more — and the rest unharmed.
func TestInlineServeSpillLimit(t *testing.T) {
	hold := make(chan struct{})
	tc, ts := NewChannelPair()
	client, _, ps, echo := recvPlatform(t, recvRegistry(hold), plainTransport{tc}, plainTransport{ts}, Options{Workers: 1}, "Echo")
	const held = 1 + spillLimit
	base := ps.Stats().RequestsServed
	var wg sync.WaitGroup
	for i := 0; i < held; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ret, err := client.NewThread().Invoke(echo, "echo", vm.Int(1)); err != nil || ret.I != 1 {
				t.Errorf("held echo = %v, %v", ret, err)
			}
		}()
	}
	for ps.Stats().RequestsServed < base+held {
		time.Sleep(time.Millisecond)
	}
	within(t, hangAfter, "request past the spill limit", func() {
		if ret, err := client.NewThread().Invoke(echo, "echo", vm.Int(2)); err != nil || ret.I != 2 {
			t.Errorf("echo past the spill limit = %v, %v", ret, err)
		}
	})
	close(hold)
	within(t, hangAfter, "held serves", wg.Wait)
	if got := ps.Stats().QueueSpills; got != spillLimit {
		t.Errorf("QueueSpills = %d, want %d", got, spillLimit)
	}
}
