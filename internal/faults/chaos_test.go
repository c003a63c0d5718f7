package faults_test

import (
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"aide/internal/faults"
	"aide/internal/remote"
	"aide/internal/vm"
)

// counterRegistry builds the chaos workload: a Counter whose inc method
// is deliberately non-idempotent — executing it twice for one call, or
// losing one, breaks the contiguous sequence of returned values.
func counterRegistry(t testing.TB) *vm.Registry {
	t.Helper()
	reg := vm.NewRegistry()
	spec := vm.ClassSpec{
		Name:   "Counter",
		Fields: []string{"n"},
		Methods: []vm.MethodSpec{
			{Name: "inc", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				cur, err := th.GetField(self, "n")
				if err != nil {
					return vm.Nil(), err
				}
				n := cur.I + 1
				return vm.Int(n), th.SetField(self, "n", vm.Int(n))
			}},
			{Name: "get", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return th.GetField(self, "n")
			}},
			{Name: "self", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return vm.RefOf(self), nil
			}},
		},
	}
	if _, err := reg.Register(spec); err != nil {
		t.Fatalf("register Counter: %v", err)
	}
	return reg
}

// chaosPlatform is a client/surrogate pair whose client-side transport
// runs through a fault injector.
type chaosPlatform struct {
	client, surrogate *vm.VM
	pc, ps            *remote.Peer
	inj               *faults.Transport
}

func newChaosPlatform(t testing.TB, prof faults.Profile, clientOpts remote.Options) *chaosPlatform {
	t.Helper()
	reg := counterRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ct, st := remote.NewChannelPair()
	inj := faults.Wrap(ct, prof)
	pc := remote.NewPeer(client, inj, clientOpts)
	ps := remote.NewPeer(surrogate, st, remote.Options{Workers: 2})
	p := &chaosPlatform{client: client, surrogate: surrogate, pc: pc, ps: ps, inj: inj}
	t.Cleanup(func() {
		_ = p.pc.Close() // may report the injected disconnect cause
		_ = p.ps.Close()
	})
	return p
}

// failoverLocal installs the standard disconnect-failover handler on the
// client VM: detach the peer slot, re-home its stubs locally, retry. It
// mirrors what aide.Client does and returns a counter of invocations.
func failoverLocal(client *vm.VM) *int32 {
	var mu sync.Mutex
	var calls int32
	client.SetFailoverHandler(func(idx int, _ vm.Peer) bool {
		mu.Lock()
		defer mu.Unlock()
		calls++
		client.DetachPeer(idx)
		client.ReclaimStubs(idx)
		return true
	})
	return &calls
}

// chaosWorkload offloads one Counter and runs serial incs, asserting the
// returned values form the exact sequence 1..n — the exactly-once
// property: a lost call would stall or error, a duplicated execution
// would skip a value.
func chaosWorkload(t *testing.T, p *chaosPlatform, incs int) {
	t.Helper()
	th := p.client.NewThread()
	id, err := th.New("Counter", 4096)
	if err != nil {
		t.Fatalf("new Counter: %v", err)
	}
	p.client.SetRoot("ctr", id)
	if _, _, err := p.pc.Offload([]string{"Counter"}); err != nil {
		t.Fatalf("offload: %v", err)
	}
	for i := 1; i <= incs; i++ {
		ret, err := th.Invoke(id, "inc")
		if err != nil {
			t.Fatalf("inc %d: %v", i, err)
		}
		if ret.I != int64(i) {
			t.Fatalf("inc %d returned %d: a fault leaked a lost or duplicated execution", i, ret.I)
		}
	}
	got, err := th.GetField(id, "n")
	if err != nil {
		t.Fatalf("final get: %v", err)
	}
	if got.I != int64(incs) {
		t.Fatalf("final count = %d, want %d", got.I, incs)
	}
}

// TestChaosProfiles runs the tier-1 remote behaviors under each fault
// profile: with bounded retries and the receiver dedupe window, every
// call must return its exact result — faults may slow the run, never
// corrupt it.
func TestChaosProfiles(t *testing.T) {
	profiles := map[string]faults.Profile{
		"drop":    {Seed: 11, DropRate: 0.20},
		"dup":     {Seed: 12, DupRate: 0.25},
		"delay":   {Seed: 13, DelayRate: 0.30, DelayMax: 2 * time.Millisecond},
		"corrupt": {Seed: 14, CorruptRate: 0.20},
		"mixed":   {Seed: 15, DropRate: 0.08, DupRate: 0.08, DelayRate: 0.08, CorruptRate: 0.08, DelayMax: time.Millisecond},
	}
	for name, prof := range profiles {
		prof := prof
		t.Run(name, func(t *testing.T) {
			p := newChaosPlatform(t, prof, remote.Options{
				Workers:   2,
				RetryMax:  8,
				RetryBase: 200 * time.Microsecond,
			})
			chaosWorkload(t, p, 150)

			st := p.inj.Stats()
			switch name {
			case "drop":
				if st.Dropped == 0 {
					t.Fatalf("drop profile injected nothing: %+v", st)
				}
			case "dup":
				if st.Duplicated == 0 {
					t.Fatalf("dup profile injected nothing: %+v", st)
				}
				if p.ps.Stats().DuplicatesDropped == 0 {
					t.Fatal("surrogate dedupe window never fired under the dup profile")
				}
			case "delay":
				if st.Delayed == 0 {
					t.Fatalf("delay profile injected nothing: %+v", st)
				}
			case "corrupt":
				if st.Corrupted == 0 {
					t.Fatalf("corrupt profile injected nothing: %+v", st)
				}
			}
			if (st.Dropped > 0 || st.Corrupted > 0) && p.pc.Stats().SendRetries == 0 {
				t.Fatal("injected send failures but the peer never retried")
			}
		})
	}
}

// TestExactlyOnceReleasesUnderFaults is the release property test:
// duplicated release batches must decref exactly once (receiver dedupe),
// dropped batch sends must be retried until delivered, and the final
// accounting must balance — no lost releases, no double releases.
func TestExactlyOnceReleasesUnderFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		prof faults.Profile
	}{
		{"drop", faults.Profile{Seed: 21, DropRate: 0.3}},
		{"dup", faults.Profile{Seed: 22, DupRate: 0.4}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newChaosPlatform(t, tc.prof, remote.Options{
				Workers:          2,
				RetryMax:         10,
				RetryBase:        100 * time.Microsecond,
				ReleaseBatchSize: 8, // 24 releases → 3 wire batches
			})
			th := p.client.NewThread()
			const objects = 24
			ids := make([]vm.ObjectID, objects)
			for i := range ids {
				id, err := th.New("Counter", 256)
				if err != nil {
					t.Fatalf("new: %v", err)
				}
				p.client.SetRoot(rootName(i), id)
				ids[i] = id
			}
			if _, _, err := p.pc.Offload([]string{"Counter"}); err != nil {
				t.Fatalf("offload: %v", err)
			}

			// Drop every root: collecting the stubs emits one release per
			// object, batched, faulted, retried, deduped.
			th.ClearTemps()
			for i := range ids {
				p.client.SetRoot(rootName(i), vm.InvalidObject)
			}
			p.client.Collect()

			deadline := time.Now().Add(5 * time.Second)
			for time.Now().Before(deadline) {
				cs, ss := p.pc.Stats(), p.ps.Stats()
				if cs.ReleasesDropped > 0 {
					t.Fatalf("lost releases: %d dropped after retry budget", cs.ReleasesDropped)
				}
				if ss.ReleasesReceived > cs.ReleasesSent {
					t.Fatalf("double release: received %d > sent %d", ss.ReleasesReceived, cs.ReleasesSent)
				}
				if cs.ReleasesSent == int64(objects) && ss.ReleasesReceived == int64(objects) {
					break
				}
				time.Sleep(2 * time.Millisecond)
			}
			cs, ss := p.pc.Stats(), p.ps.Stats()
			if cs.ReleasesSent != int64(objects) || ss.ReleasesReceived != int64(objects) {
				t.Fatalf("releases sent %d / received %d, want %d / %d",
					cs.ReleasesSent, ss.ReleasesReceived, objects, objects)
			}
			// The surrogate can now actually collect the released objects.
			p.surrogate.Collect()
			if live := p.surrogate.Heap().Live; live != 0 {
				t.Fatalf("surrogate live = %d after all releases, want 0", live)
			}
		})
	}
}

func rootName(i int) string {
	return "obj" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// TestSeverAtRandomPoint is the acceptance chaos profile: 200 seeded
// iterations, each severing the connection hard at a random point in the
// workload. Every call must return either the correct remote result or
// the correct local-fallback result (the counter restarts from zero when
// the client reclaims the stub), with no hangs, no duplicate executions,
// and no skipped values within a run.
func TestSeverAtRandomPoint(t *testing.T) {
	const iterations = 200
	rng := rand.New(rand.NewSource(0xA1DE))
	for it := 0; it < iterations; it++ {
		severAt := 1 + rng.Int63n(60)
		severIteration(t, it, severAt)
	}
}

// lateRecv withholds the inner transport's failure from the receive loop
// until release closes: the ordering in which a sender learns of a sever
// before the receive loop does.
type lateRecv struct {
	remote.Transport
	release chan struct{}
}

func (l lateRecv) Recv() (*remote.Message, error) {
	m, err := l.Transport.Recv()
	if err != nil {
		<-l.release
	}
	return m, err
}

// TestSeverSeenBySenderFirst scripts the losing side of the race
// TestSeverAtRandomPoint hits by chance: the sever lands on a send, and
// the receive loop has not noticed yet. The failed send must itself
// disconnect the peer so the call fails over, instead of surfacing a bare
// "connection closed" the VM does not recognize as a lost peer.
func TestSeverSeenBySenderFirst(t *testing.T) {
	reg := counterRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ct, st := remote.NewChannelPair()
	late := lateRecv{Transport: ct, release: make(chan struct{})}
	inj := faults.Wrap(late, faults.Profile{})
	pc := remote.NewPeer(client, inj, remote.Options{Workers: 2, RetryMax: 2, RetryBase: 50 * time.Microsecond, CallTimeout: 5 * time.Second})
	ps := remote.NewPeer(surrogate, st, remote.Options{Workers: 2})
	defer func() {
		close(late.release)
		_ = pc.Close()
		_ = ps.Close()
	}()
	calls := failoverLocal(client)

	th := client.NewThread()
	id, err := th.New("Counter", 1024)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("ctr", id)
	if _, _, err := pc.Offload([]string{"Counter"}); err != nil {
		t.Fatal(err)
	}
	if ret, err := th.Invoke(id, "inc"); err != nil || ret.I != 1 {
		t.Fatalf("remote inc = %v, %v", ret, err)
	}
	if err := inj.Sever(); err != nil {
		t.Fatal(err)
	}
	// The receive loop is still blind; only this send can tell.
	ret, err := th.Invoke(id, "inc")
	if err != nil {
		t.Fatalf("inc across the sever: %v", err)
	}
	if ret.I != 1 { // the reclaimed copy restarts zeroed
		t.Fatalf("inc after failover returned %d, want 1", ret.I)
	}
	if *calls != 1 || pc.State() != remote.StateDisconnected {
		t.Fatalf("failovers = %d, peer state %v; want 1, disconnected", *calls, pc.State())
	}
}

func severIteration(t *testing.T, it int, severAt int64) {
	t.Helper()
	p := newChaosPlatform(t, faults.Profile{SeverAfter: severAt}, remote.Options{
		Workers:     2,
		RetryMax:    2,
		RetryBase:   50 * time.Microsecond,
		CallTimeout: 5 * time.Second, // converts a would-be hang into a visible failure
	})
	failoverLocal(p.client)

	th := p.client.NewThread()
	id, err := th.New("Counter", 1024)
	if err != nil {
		t.Fatalf("iter %d: new: %v", it, err)
	}
	p.client.SetRoot("ctr", id)

	offloaded := true
	if _, _, err := p.pc.Offload([]string{"Counter"}); err != nil {
		// The sever hit during migration: the batch was never converted
		// to stubs, so the object stays local and the run continues
		// degraded from the start.
		offloaded = false
	}

	const incs = 40
	prev := int64(0)
	resets := 0
	for i := 0; i < incs; i++ {
		start := time.Now()
		ret, err := th.Invoke(id, "inc")
		if err != nil {
			t.Fatalf("iter %d (sever@%d, offloaded=%v): inc %d failed: %v", it, severAt, offloaded, i, err)
		}
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("iter %d: inc %d took %v — effectively hung", it, i, d)
		}
		switch {
		case ret.I == prev+1:
			// Contiguous: the call executed exactly once on whichever
			// side currently owns the object.
		case ret.I == 1 && resets == 0 && offloaded:
			// The one permitted reset: the surrogate vanished and the
			// reclaimed local copy restarted from zeroed fields.
			resets++
		default:
			t.Fatalf("iter %d (sever@%d): inc %d returned %d after %d (resets=%d): lost or duplicated execution",
				it, severAt, i, ret.I, prev, resets)
		}
		prev = ret.I
	}

	// After the sever the object must be local again (or have never
	// left); a final read must come from the local heap.
	if o := p.client.Object(id); o == nil {
		t.Fatalf("iter %d: counter vanished", it)
	} else if o.Remote && p.pc.State() == remote.StateDisconnected {
		t.Fatalf("iter %d: stub still points at a disconnected peer", it)
	}
}

// TestHalfCloseTimesOutAndFailsOver is the regression test for the
// half-close hang: a blackholed transport (sends vanish silently, no
// error, no replies) must not block Peer.Call forever. The deadline
// expires, consecutive timeouts escalate to disconnected, and the next
// call falls back to local execution.
func TestHalfCloseTimesOutAndFailsOver(t *testing.T) {
	p := newChaosPlatform(t, faults.Profile{}, remote.Options{
		Workers:         2,
		CallTimeout:     40 * time.Millisecond,
		RetryMax:        -1,
		DisconnectAfter: 2,
	})
	calls := failoverLocal(p.client)

	th := p.client.NewThread()
	id, err := th.New("Counter", 1024)
	if err != nil {
		t.Fatal(err)
	}
	p.client.SetRoot("ctr", id)
	if _, _, err := p.pc.Offload([]string{"Counter"}); err != nil {
		t.Fatalf("offload: %v", err)
	}
	if ret, err := th.Invoke(id, "inc"); err != nil || ret.I != 1 {
		t.Fatalf("healthy inc: ret=%v err=%v", ret, err)
	}

	// Silently half-close the link: requests vanish, no transport error.
	p.inj.Blackhole()

	// First call: must return (not hang) with a deadline error.
	done := make(chan error, 1)
	go func() {
		_, err := th.Invoke(id, "inc")
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, remote.ErrCallTimeout) {
			t.Fatalf("blackholed call err = %v, want ErrCallTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blackholed call hung: the half-close deadline regression is back")
	}
	if st := p.pc.State(); st != remote.StateDegraded {
		t.Fatalf("state after first timeout = %v, want degraded", st)
	}

	// Second call: the timeout escalates to disconnected and the VM
	// fails the call over to the reclaimed local copy, which restarts
	// from zero.
	ret, err := th.Invoke(id, "inc")
	if err != nil {
		t.Fatalf("escalating call must fall back locally, got %v", err)
	}
	if ret.I != 1 {
		t.Fatalf("local fallback returned %d, want 1 (zeroed reclaimed copy)", ret.I)
	}
	if *calls == 0 {
		t.Fatal("failover handler never ran")
	}
	if st := p.pc.State(); st != remote.StateDisconnected {
		t.Fatalf("state = %v, want disconnected", st)
	}
	if p.pc.Stats().CallTimeouts < 2 {
		t.Fatalf("CallTimeouts = %d, want >= 2", p.pc.Stats().CallTimeouts)
	}

	// Later calls stay local and keep counting without errors.
	for i := int64(2); i <= 4; i++ {
		ret, err := th.Invoke(id, "inc")
		if err != nil || ret.I != i {
			t.Fatalf("post-fallback inc: ret=%v err=%v, want %d", ret, err, i)
		}
	}
}

// TestOnDownFiresOnceWithDisconnectCause pins the OnDown contract: an
// involuntary loss fires the hook exactly once with a cause wrapping
// ErrDisconnected, while a plain Close never fires it.
func TestOnDownFiresOnceWithDisconnectCause(t *testing.T) {
	reg := counterRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 1 << 20})

	t.Run("sever fires", func(t *testing.T) {
		ct, st := remote.NewChannelPair()
		inj := faults.Wrap(ct, faults.Profile{})
		var mu sync.Mutex
		var causes []error
		pc := remote.NewPeer(client, inj, remote.Options{Workers: 1, OnDown: func(p *remote.Peer, cause error) {
			mu.Lock()
			causes = append(causes, cause)
			mu.Unlock()
		}})
		ps := remote.NewPeer(surrogate, st, remote.Options{Workers: 1})
		defer func() { _ = ps.Close() }()

		if err := inj.Sever(); err != nil {
			t.Fatalf("sever: %v", err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			mu.Lock()
			n := len(causes)
			mu.Unlock()
			if n > 0 || time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		defer mu.Unlock()
		if len(causes) != 1 {
			t.Fatalf("OnDown fired %d times, want exactly 1", len(causes))
		}
		if !errors.Is(causes[0], remote.ErrDisconnected) {
			t.Fatalf("OnDown cause = %v, want it to wrap ErrDisconnected", causes[0])
		}
		if !errors.Is(causes[0], vm.ErrPeerGone) {
			t.Fatalf("OnDown cause = %v, must wrap vm.ErrPeerGone for the failover path", causes[0])
		}
		_ = pc.Close()
	})

	t.Run("plain close does not fire", func(t *testing.T) {
		ct, st := remote.NewChannelPair()
		fired := make(chan struct{}, 1)
		pc := remote.NewPeer(client, ct, remote.Options{Workers: 1, OnDown: func(p *remote.Peer, cause error) {
			fired <- struct{}{}
		}})
		ps := remote.NewPeer(surrogate, st, remote.Options{Workers: 1})
		if err := pc.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		_ = ps.Close()
		select {
		case <-fired:
			t.Fatal("OnDown fired on a deliberate Close")
		case <-time.After(50 * time.Millisecond):
		}
	})
}

// TestChaosRaceStress hammers the faulted platform from several
// goroutines so the race detector sees the retry path, dedupe window,
// state machine, and injector under contention, ending with a sever
// while calls are in flight.
func TestChaosRaceStress(t *testing.T) {
	p := newChaosPlatform(t, faults.Profile{
		Seed:      31,
		DropRate:  0.05,
		DupRate:   0.05,
		DelayRate: 0.05,
		DelayMax:  500 * time.Microsecond,
	}, remote.Options{
		Workers:     4,
		RetryMax:    6,
		RetryBase:   100 * time.Microsecond,
		CallTimeout: 5 * time.Second,
	})
	failoverLocal(p.client)

	setup := p.client.NewThread()
	const workers = 4
	ids := make([]vm.ObjectID, workers)
	for i := range ids {
		id, err := setup.New("Counter", 512)
		if err != nil {
			t.Fatal(err)
		}
		p.client.SetRoot(rootName(i), id)
		ids[i] = id
	}
	if _, _, err := p.pc.Offload([]string{"Counter"}); err != nil {
		t.Fatalf("offload: %v", err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id vm.ObjectID) {
			defer wg.Done()
			th := p.client.NewThread()
			for n := 0; n < 40; n++ {
				if _, err := th.Invoke(id, "inc"); err != nil {
					errc <- err
					return
				}
			}
		}(ids[i])
	}
	// Sever mid-flight; every outstanding call must resolve, via remote
	// completion or local fallback.
	time.Sleep(2 * time.Millisecond)
	if err := p.inj.Sever(); err != nil {
		t.Logf("sever: %v", err)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		// Post-sever failures are only legal if they are NOT hangs or
		// duplicate executions; with the failover handler installed every
		// call should in fact succeed.
		if err != nil && !strings.Contains(err.Error(), "context") {
			t.Fatalf("call failed across sever despite failover: %v", err)
		}
	}
}
