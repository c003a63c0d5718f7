package remote

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/vm"
)

// pinnedObjects builds n surrogate-hosted Doc objects, each exported to
// the client exactly once: the client creates and roots them and offloads
// the class, and adoption pins each object for the stub the client keeps.
// Returns the surrogate-namespace IDs and the matching client stub IDs.
func pinnedObjects(t *testing.T, client, surrogate *vm.VM, pc *Peer, n int) (objs, stubs []vm.ObjectID) {
	t.Helper()
	th := client.NewThread()
	for i := 0; i < n; i++ {
		obj, err := th.New("Doc", 64)
		if err != nil {
			t.Fatalf("new Doc %d: %v", i, err)
		}
		client.SetRoot(fmt.Sprintf("storm-%d", i), obj)
		stubs = append(stubs, obj)
	}
	moved, _, err := pc.Offload([]string{"Doc"})
	if err != nil {
		t.Fatalf("offload: %v", err)
	}
	if moved != n {
		t.Fatalf("offload moved %d objects, want %d", moved, n)
	}
	for i, id := range stubs {
		o := client.Object(id)
		if o == nil || !o.Remote {
			t.Fatalf("object %d is not a stub after offload", i)
		}
		if got := surrogate.ExportCount(o.PeerID); got != 1 {
			t.Fatalf("object %d export count = %d after adoption, want 1", i, got)
		}
		objs = append(objs, o.PeerID)
	}
	return objs, stubs
}

// TestReleaseStormExactlyOnce is the distributed-GC batching storm: a
// thousand stubs die (concurrently, to exercise the buffer under -race),
// and every export pin must drop exactly once — no decref lost across
// flush thresholds and the Close-time flush, none duplicated — while the
// wire carries at least 10x fewer messages than one-per-release.
func TestReleaseStormExactlyOnce(t *testing.T) {
	const n = 1000
	client, surrogate, pc, ps := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: 32, Now: fixedClock()})
	objs, stubs := pinnedObjects(t, client, surrogate, pc, n)

	var wg sync.WaitGroup
	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := client.FreeObject(stubs[i]); err != nil {
					t.Errorf("free stub %d: %v", i, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Close both halves: the client flushes its partial batch before the
	// transport dies, and the surrogate's Close waits for its workers to
	// drain every queued batch.
	if err := pc.Close(); err != nil {
		t.Fatalf("close client peer: %v", err)
	}
	if err := ps.Close(); err != nil {
		t.Fatalf("close surrogate peer: %v", err)
	}

	cs, ss := pc.Stats(), ps.Stats()
	if cs.ReleasesSent != n {
		t.Errorf("client ReleasesSent = %d, want %d", cs.ReleasesSent, n)
	}
	if ss.ReleasesReceived != n {
		t.Errorf("surrogate ReleasesReceived = %d, want exactly %d (lost or duplicated decrefs)", ss.ReleasesReceived, n)
	}
	for i, obj := range objs {
		if got := surrogate.ExportCount(obj); got != 0 {
			t.Errorf("object %d export count = %d after storm, want 0", i, got)
		}
	}
	if cs.ReleaseBatchesSent == 0 || cs.ReleasesSent < 10*cs.ReleaseBatchesSent {
		t.Errorf("coalescing too weak: %d releases in %d wire messages, want >= 10x fewer messages",
			cs.ReleasesSent, cs.ReleaseBatchesSent)
	}
}

// TestCollectionShipsOneReleaseFrame: a collection that frees more stubs
// than ReleaseBatchSize hands the peer all of their IDs in one call, which
// ships them as one MsgReleaseBatch frame, and the surrogate's export
// ledger returns to zero.
func TestCollectionShipsOneReleaseFrame(t *testing.T) {
	const n, batch = 100, 8
	client, surrogate, pc, ps := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: batch, Now: fixedClock()})
	objs, _ := pinnedObjects(t, client, surrogate, pc, n)
	client.NewThread().ClearTemps()
	for i := 0; i < n; i++ {
		client.SetRoot(fmt.Sprintf("storm-%d", i), vm.InvalidObject)
	}
	client.Collect()
	within(t, hangAfter, "the collection's releases", func() {
		for ps.Stats().ReleasesReceived < n {
			time.Sleep(time.Millisecond)
		}
	})
	if cs := pc.Stats(); cs.ReleasesSent != n || cs.ReleaseBatchesSent != 1 {
		t.Errorf("collection of %d stubs sent %d releases in %d frames, want %d in 1", n, cs.ReleasesSent, cs.ReleaseBatchesSent, n)
	}
	for i, obj := range objs {
		if got := surrogate.ExportCount(obj); got != 0 {
			t.Fatalf("object %d export count = %d after the collection, want 0", i, got)
		}
	}
	surrogate.Collect()
	if h := surrogate.Heap(); h.Objects != 0 {
		t.Errorf("surrogate holds %d objects once every pin is released, want 0", h.Objects)
	}
}

// TestRecallReleasesRequesterPins: objects coming home are pinned for the
// stubs the surrogate keeps in their place, and the surrogate collects
// those stubs once its recall reply is out and ships their releases, fewer
// than a batch as they are, so the pins go and nothing is left on the
// surrogate.
func TestRecallReleasesRequesterPins(t *testing.T) {
	const n = 8
	client, surrogate, pc, _ := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: 32, Now: fixedClock()})
	_, stubs := pinnedObjects(t, client, surrogate, pc, n)
	if moved, _, err := pc.Recall([]string{"Doc"}); err != nil || moved != n {
		t.Fatalf("recall moved %d objects, %v; want %d", moved, err, n)
	}
	within(t, hangAfter, "the surrogate's releases after a recall", func() {
		for i := 0; i < n; i++ {
			for client.ExportCount(stubs[i]) != 0 {
				time.Sleep(time.Millisecond)
			}
		}
	})
	if h := surrogate.Heap(); h.Objects != 0 || h.Live != 0 {
		t.Errorf("surrogate holds %d B in %d objects after the recall, want none", h.Live, h.Objects)
	}
	for i, id := range stubs {
		if o := client.Object(id); o == nil || o.Remote {
			t.Fatalf("object %d is not local after the recall", i)
		}
	}
}

// fixedClock returns a Now func pinned to one instant, so neither the
// interval trigger nor RTT measurement can fire nondeterministically.
func fixedClock() func() time.Time {
	base := time.Unix(1000, 0)
	return func() time.Time { return base }
}

// TestReleaseBatchSizeThreshold pins the size trigger: the batch ships
// exactly when the buffer reaches ReleaseBatchSize, not before.
func TestReleaseBatchSizeThreshold(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	ta, tb := NewChannelPair()
	pc := NewPeer(client, ta, Options{ReleaseBatchSize: 4, Now: fixedClock()})
	t.Cleanup(func() { _ = pc.Close(); _ = tb.Close() })

	for i := 0; i < 3; i++ {
		pc.Release(vm.ObjectID(1_000_000 + i))
	}
	if got := pc.Stats().ReleaseBatchesSent; got != 0 {
		t.Fatalf("after 3 releases with batch size 4: %d batches sent, want 0", got)
	}
	pc.Release(1_000_003)
	st := pc.Stats()
	if st.ReleaseBatchesSent != 1 {
		t.Fatalf("after 4th release: %d batches sent, want 1", st.ReleaseBatchesSent)
	}
	if st.ReleasesSent != 4 {
		t.Fatalf("ReleasesSent = %d, want 4", st.ReleasesSent)
	}
	if m, err := tb.Recv(); err != nil || m.Kind != MsgReleaseBatch || len(m.IDs) != 4 {
		t.Fatalf("peer received %+v (err %v), want a release-batch of 4 IDs", m, err)
	}
}

// TestReleaseIntervalFlush pins the aging trigger: a Release arriving
// ReleaseFlushInterval after the buffer's first entry flushes it even
// though the batch is far from full.
func TestReleaseIntervalFlush(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	ta, tb := NewChannelPair()
	pc := NewPeer(client, ta, Options{ReleaseBatchSize: 1000, ReleaseFlushInterval: time.Millisecond, Now: clock})
	t.Cleanup(func() { _ = pc.Close(); _ = tb.Close() })

	pc.Release(1_000_000)
	pc.Release(1_000_001)
	if got := pc.Stats().ReleaseBatchesSent; got != 0 {
		t.Fatalf("batches = %d before the interval elapsed, want 0", got)
	}
	advance(2 * time.Millisecond)
	pc.Release(1_000_002)
	if got := pc.Stats().ReleaseBatchesSent; got != 1 {
		t.Fatalf("batches = %d after an overdue release, want 1", got)
	}
	if m, err := tb.Recv(); err != nil || len(m.IDs) != 3 {
		t.Fatalf("peer received %+v (err %v), want a batch of all 3 buffered IDs", m, err)
	}
}

// TestReleaseFlushBeforeCall pins the ordering contract: buffered
// releases ship before any blocking request, so a release can never
// reorder after a call that re-exports the same object.
func TestReleaseFlushBeforeCall(t *testing.T) {
	_, _, pc, _ := newPlatformBatched(t, Options{Workers: 2, ReleaseBatchSize: 1000, Now: fixedClock()})

	pc.Release(1_000_000)
	pc.Release(1_000_001)
	if got := pc.Stats().ReleaseBatchesSent; got != 0 {
		t.Fatalf("batches = %d before any call, want 0", got)
	}
	if err := pc.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if got := pc.Stats().ReleaseBatchesSent; got != 1 {
		t.Fatalf("batches = %d after a blocking call, want 1 (flush-before-call)", got)
	}
}

// newPlatformBatched is newPlatform with explicit peer options.
func newPlatformBatched(t *testing.T, opts Options) (client, surrogate *vm.VM, pc, ps *Peer) {
	t.Helper()
	reg := testRegistry(t)
	client = vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate = vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20, CPUSpeed: 3.5})
	pc, ps = NewPair(client, surrogate, opts)
	t.Cleanup(func() {
		_ = pc.Close()
		_ = ps.Close()
	})
	return client, surrogate, pc, ps
}

// flakyTransport drops the failOn-th message of kind failKind, modeling
// a transport failure mid-batch.
type flakyTransport struct {
	Transport
	failKind MsgKind
	failOn   int64
	seen     atomic.Int64
}

func (f *flakyTransport) Send(m *Message) error {
	if m.Kind == f.failKind && f.seen.Add(1) == f.failOn {
		return fmt.Errorf("flaky transport: dropped %s", m.Kind)
	}
	return f.Transport.Send(m)
}

// TestReleaseBatchTransportFailure pins the failure contract: a batch
// that hits a transient transport error is retried with the same message
// ID, so the decrefs it carried apply exactly once — nothing leaks and
// nothing double-releases. With retries disabled the pre-retry contract
// still holds: the lost batch leaks exactly its own pins and the decrefs
// it carried never corrupt neighbouring batches.
func TestReleaseBatchTransportFailure(t *testing.T) {
	const n, batch = 12, 4
	run := func(t *testing.T, retryMax int) (*vm.VM, []vm.ObjectID, Stats) {
		t.Helper()
		reg := testRegistry(t)
		client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
		surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20, CPUSpeed: 3.5})
		ta, tb := NewChannelPair()
		flaky := &flakyTransport{Transport: ta, failKind: MsgReleaseBatch, failOn: 2}
		pc := NewPeer(client, flaky, Options{Workers: 2, ReleaseBatchSize: batch, Now: fixedClock(), RetryMax: retryMax})
		ps := NewPeer(surrogate, tb, Options{Workers: 2})
		t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })

		objs, stubs := pinnedObjects(t, client, surrogate, pc, n)
		for i := range stubs {
			if err := client.FreeObject(stubs[i]); err != nil {
				t.Fatalf("free stub %d: %v", i, err)
			}
		}
		if err := pc.Close(); err != nil {
			t.Fatalf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Fatalf("close surrogate peer: %v", err)
		}
		return surrogate, objs, ps.Stats()
	}

	t.Run("retried", func(t *testing.T) {
		surrogate, objs, st := run(t, 0) // default retry budget
		if st.ReleasesReceived != n {
			t.Errorf("surrogate ReleasesReceived = %d, want %d (retried batch redelivered)", st.ReleasesReceived, n)
		}
		for i, obj := range objs {
			if got := surrogate.ExportCount(obj); got != 0 {
				t.Errorf("object %d export count = %d, want 0", i, got)
			}
		}
	})

	t.Run("retry-disabled", func(t *testing.T) {
		// Frees run in order with a fixed clock, so batch boundaries are
		// deterministic: [0..3] delivered, [4..7] dropped, [8..11]
		// delivered.
		surrogate, objs, st := run(t, -1)
		if st.ReleasesReceived != n-batch {
			t.Errorf("surrogate ReleasesReceived = %d, want %d (one lost batch of %d)", st.ReleasesReceived, n-batch, batch)
		}
		for i, obj := range objs {
			want := int64(0)
			if i >= 4 && i < 8 {
				want = 1 // leaked by the dropped batch, never double-released
			}
			if got := surrogate.ExportCount(obj); got != want {
				t.Errorf("object %d export count = %d, want %d", i, got, want)
			}
		}
	})
}

// TestRetriedMigrationPinsOnce: a migrate frame whose first send fails is
// sent again as the same bytes — the batch is extracted once — so the
// object staying behind that a migrated one references carries exactly
// one pin, for the one stub the surrogate makes.
func TestRetriedMigrationPinsOnce(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ta, tb := NewChannelPair()
	flaky := &flakyTransport{Transport: ta, failKind: MsgMigrate, failOn: 1}
	pc := NewPeer(client, flaky, Options{Workers: 2})
	ps := NewPeer(surrogate, tb, Options{Workers: 2})
	t.Cleanup(func() { _ = pc.Close(); _ = ps.Close() })

	th := client.NewThread()
	ui, err := th.New("UI", 128)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := th.New("Doc", 2048)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(doc, "title", vm.RefOf(ui)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("ui", ui)
	client.SetRoot("doc", doc)
	th.ClearTemps()
	if n, _, err := pc.Offload([]string{"Doc"}); err != nil || n != 1 {
		t.Fatalf("offload moved %d objects, %v; want 1", n, err)
	}
	if got := flaky.seen.Load(); got != 2 {
		t.Fatalf("%d migrate sends, want the failed one and its retry", got)
	}
	if n := client.ExportCount(ui); n != 1 {
		t.Fatalf("the object staying behind holds %d pins after a retried migration, want 1", n)
	}
}

// TestOrphanReplyCounted pins the recvLoop fix: a reply with no pending
// waiter is counted in Stats.OrphanReplies and recorded once in the
// peer's warning state instead of vanishing silently.
func TestOrphanReplyCounted(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	ta, tb := NewChannelPair()
	pc := NewPeer(client, ta, Options{})
	t.Cleanup(func() { _ = pc.Close() })

	if pc.Warn() != nil {
		t.Fatal("fresh peer already has a warning")
	}
	for _, id := range []uint64{999, 1000} {
		if err := tb.Send(&Message{ID: id, Reply: true, Kind: MsgPing}); err != nil {
			t.Fatalf("send orphan reply: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pc.Stats().OrphanReplies < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("OrphanReplies = %d, want 2", pc.Stats().OrphanReplies)
		}
		time.Sleep(time.Millisecond)
	}
	w := pc.Warn()
	if w == nil {
		t.Fatal("orphan replies produced no warning")
	}
	if want := "id=999"; !strings.Contains(w.Error(), want) {
		t.Errorf("warning %q does not mention the first orphan (%s)", w, want)
	}
}
