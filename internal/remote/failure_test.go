package remote

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/vm"
)

// failureRegistry has one offloadable class and a method that blocks until
// released, for in-flight-failure tests.
func failureRegistry(block chan struct{}) *vm.Registry {
	reg := vm.NewRegistry()
	mustRegister(reg, vm.ClassSpec{
		Name:   "Box",
		Fields: []string{"v"},
		Methods: []vm.MethodSpec{
			{Name: "get", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return th.GetField(self, "v")
			}},
			{Name: "wait", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				if block != nil {
					<-block
				}
				return vm.Nil(), nil
			}},
		},
	})
	return reg
}

func TestCallAfterCloseFails(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})

	th := client.NewThread()
	id, err := th.New("Box", 32)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(id, "get"); err == nil {
		t.Fatal("invoke over a closed platform must fail")
	}
}

func TestInFlightCallFailsOnTransportDeath(t *testing.T) {
	block := make(chan struct{})
	reg := failureRegistry(block)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	ct, st := NewChannelPair()
	pc := NewPeer(client, ct, Options{Workers: 1})
	ps := NewPeer(surrogate, st, Options{Workers: 1})
	defer ps.Close()
	defer close(block)

	th := client.NewThread()
	id, err := th.New("Box", 32)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := th.Invoke(id, "wait") // blocks on the surrogate
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call returned nil after connection death")
		}
	case <-time.After(3 * time.Second):
		t.Fatal("in-flight call never unblocked")
	}
}

func TestPeerErrorsSurfaceAsRemoteError(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()

	// Ask the surrogate to invoke an object it does not host.
	_, _, err := pc.InvokeRemote(vm.ObjectID(4242), "get", nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *RemoteError", err)
	}
	if !strings.Contains(re.Error(), "no such object") {
		t.Fatalf("remote error text: %v", re)
	}
}

func TestOffloadNothingIsNoop(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()
	n, bytes, err := pc.Offload([]string{"Box"}) // no live objects
	if err != nil || n != 0 || bytes != 0 {
		t.Fatalf("empty offload: %d %d %v", n, bytes, err)
	}
}

func TestStatsAccounting(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	defer pc.Close()
	defer ps.Close()

	th := client.NewThread()
	id, err := th.New("Box", 128)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("box", id)
	if _, _, err := pc.Offload([]string{"Box"}); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(id, "get"); err != nil {
		t.Fatal(err)
	}
	cs := pc.Stats()
	if cs.RequestsSent < 2 || cs.ObjectsMigrated != 1 || cs.MigrationBytes == 0 || cs.BytesSent == 0 {
		t.Fatalf("client stats: %+v", cs)
	}
	ss := ps.Stats()
	if ss.RequestsServed < 2 {
		t.Fatalf("surrogate stats: %+v", ss)
	}
}

func TestDoubleCloseAndPingAfterClose(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate})
	pc, ps := NewPair(client, surrogate, Options{Workers: 1})
	if err := pc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pc.Close(); err != nil {
		t.Fatal("double close must be fine")
	}
	if err := pc.Ping(); err == nil {
		t.Fatal("ping after close must fail")
	}
	_ = ps.Close()
}

// TestOrphanReplyLogsOncePerPeer pins the orphan-reply diagnostics: every
// orphan is counted, but the log line fires once per peer — not once per
// pending-table shard — no matter which shards the orphan IDs land in.
func TestOrphanReplyLogsOncePerPeer(t *testing.T) {
	reg := failureRegistry(nil)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient})
	ct, st := NewChannelPair()
	var mu sync.Mutex
	var lines []string
	pc := NewPeer(client, ct, Options{Workers: 1, Logf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	defer func() { _ = pc.Close() }()

	// Replies nobody is waiting for; the IDs land in four different
	// shards of the 16-way pending-call table (id & 15).
	ids := []uint64{3, 4, 17, 18, 33}
	for _, id := range ids {
		if err := st.Send(&Message{ID: id, Reply: true, Kind: MsgPong}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for pc.Stats().OrphanReplies < int64(len(ids)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := pc.Stats().OrphanReplies; got != int64(len(ids)) {
		t.Fatalf("OrphanReplies = %d, want %d (every orphan counted)", got, len(ids))
	}
	mu.Lock()
	defer mu.Unlock()
	logged := 0
	for _, l := range lines {
		if strings.Contains(l, "orphan") {
			logged++
		}
	}
	if logged != 1 {
		t.Fatalf("orphan log fired %d times, want exactly once per peer:\n%s",
			logged, strings.Join(lines, "\n"))
	}
	if pc.Warn() == nil {
		t.Fatal("Warn() must report the recorded orphan anomaly")
	}
}

// downTransport fails every send with a transient error.
type downTransport struct{ Transport }

func (downTransport) Send(*Message) error { return errors.New("down transport: try again") }

// errSignalCtx reports, on asked, each time its Err is consulted: sendRetry
// does that once per failed send, immediately before it backs off.
type errSignalCtx struct {
	context.Context
	asked chan struct{}
}

func (c errSignalCtx) Err() error {
	select {
	case c.asked <- struct{}{}:
	default:
	}
	return c.Context.Err()
}

// TestBackoffYieldsToCancelAndClose: a caller waiting out a retry back-off
// — an hour here — leaves it the moment its context is cancelled or the
// peer closes.
func TestBackoffYieldsToCancelAndClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(cancel context.CancelFunc, p *Peer)
		want error
	}{
		{"cancel", func(cancel context.CancelFunc, _ *Peer) { cancel() }, context.Canceled},
		{"close", func(_ context.CancelFunc, p *Peer) { _ = p.Close() }, ErrClosed},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ta, tb := NewChannelPair()
			defer tb.Close()
			p := NewPeer(vm.New(testRegistry(t), vm.Config{Role: vm.RoleClient}), downTransport{ta}, Options{RetryBase: time.Hour})
			defer p.Close()
			parent, cancel := context.WithCancel(context.Background())
			defer cancel()
			ctx := errSignalCtx{parent, make(chan struct{}, 1)}
			result := make(chan error, 1)
			go func() { result <- p.Probe(ctx) }()
			<-ctx.asked
			tc.end(cancel, p)
			within(t, hangAfter, "the probe to leave its back-off", func() {
				if err := <-result; !errors.Is(err, tc.want) {
					t.Errorf("probe returned %v, want %v", err, tc.want)
				}
			})
		})
	}
}
