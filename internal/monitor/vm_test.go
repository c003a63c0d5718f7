package monitor_test

import (
	"errors"
	"sync"
	"testing"
	"time"

	"aide/internal/apps"
	"aide/internal/monitor"
	"aide/internal/trace"
	"aide/internal/vm"
)

// TestVMEqualsTapReplay: a monitor on a VM running each Table-1 driver,
// and a monitor fed the recording apps.Record's tap makes of the same run,
// keep the same books — node order, flags, weights and counts. A VM's
// batches go through the same binding and decode as a replay.
func TestVMEqualsTapReplay(t *testing.T) {
	recordings := table1(t)
	for i, spec := range apps.All() {
		reg, driver, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		v := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: spec.RecordHeap, GCBytesTrigger: 512 << 10})
		live := monitor.New(monitor.RegistryMeta(reg))
		v.SetHooks(live)
		if err := driver(v.NewThread()); err != nil {
			t.Fatal(err)
		}
		// Collect as Record does, for the final object deaths; booksOf
		// delivers what the VM still buffers.
		v.Collect()
		got := booksOf(live)
		fed, tr := monitor.New(nil), recordings[i]
		for i := range tr.Events {
			fed.Feed(tr, &tr.Events[i])
		}
		requireSameBooks(t, spec.Name, got, booksOf(fed))
	}
}

// countingHooks stands between a VM and its monitor and counts the events
// the VM delivers.
type countingHooks struct {
	*monitor.Monitor
	delivered int64 // guarded by the VM's lock
	flush     func()
}

func (c *countingHooks) OnEvents(t *trace.Trace, evs []trace.Event) {
	c.delivered += int64(len(evs))
	c.Monitor.OnEvents(t, evs)
}

func (c *countingHooks) Attach(flush func()) {
	c.flush = flush
	c.Monitor.Attach(flush)
}

// eventSum is every invoke, access, create and delete m has counted.
func eventSum(m *monitor.Monitor) int64 {
	inv, acc, creates, deletes, _ := m.Counts()
	return inv + acc + creates + deletes
}

// editor is a small monitored application: UI.run edits a Doc rounds
// times, and every edit reads the document, allocates a Buf, fills it and
// writes it back — invocations, accesses across classes, creations, and a
// collection every 32 objects.
func editor(t *testing.T, heap int64) (*vm.VM, *countingHooks, func(rounds int) error) {
	t.Helper()
	reg := vm.NewRegistry()
	body := func(f func(th *vm.Thread, self vm.ObjectID, args []vm.Value) error) vm.Body {
		return func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
			return vm.Nil(), f(th, self, args)
		}
	}
	specs := []vm.ClassSpec{
		{Name: "Buf", Fields: []string{"data"}, Methods: []vm.MethodSpec{
			{Name: "fill", Body: body(func(th *vm.Thread, self vm.ObjectID, args []vm.Value) error {
				th.Work(time.Microsecond)
				return th.SetField(self, "data", vm.Int(1))
			})},
		}},
		{Name: "Doc", Fields: []string{"buf"}, Methods: []vm.MethodSpec{
			{Name: "edit", Body: body(func(th *vm.Thread, self vm.ObjectID, args []vm.Value) error {
				b, err := th.New("Buf", 256)
				if err != nil {
					return err
				}
				if _, err := th.Invoke(b, "fill"); err != nil {
					return err
				}
				if _, err := th.GetField(b, "data"); err != nil {
					return err
				}
				return th.SetField(self, "buf", vm.RefOf(b))
			})},
		}},
		{Name: "UI", Methods: []vm.MethodSpec{
			{Name: "run", Body: body(func(th *vm.Thread, self vm.ObjectID, args []vm.Value) error {
				for i := int64(0); i < args[1].I; i++ {
					if _, err := th.Invoke(args[0].Ref, "edit"); err != nil {
						return err
					}
				}
				return nil
			})},
		}},
	}
	for _, s := range specs {
		if _, err := reg.Register(s); err != nil {
			t.Fatal(err)
		}
	}
	v := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: heap, GCObjectTrigger: 32})
	h := &countingHooks{Monitor: monitor.New(monitor.RegistryMeta(reg))}
	v.SetHooks(h)
	th := v.NewThread()
	run := func(rounds int) error {
		ui, err := th.New("UI", 64)
		if err != nil {
			return err
		}
		doc, err := th.New("Doc", 64)
		if err != nil {
			return err
		}
		_, err = th.Invoke(ui, "run", vm.RefOf(doc), vm.Int(int64(rounds)))
		return err
	}
	return v, h, run
}

// TestReaderSeesEveryEvent: once a driver on one goroutine has returned, a
// read on another sees every event it made, buffered or not.
func TestReaderSeesEveryEvent(t *testing.T) {
	_, h, run := editor(t, 1<<20)
	done := make(chan error)
	go func() { done <- run(500) }()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	got := eventSum(h.Monitor)
	h.flush() // whatever the read missed is delivered now
	if got != h.delivered || got < 2000 {
		t.Fatalf("the read counted %d events, the VM made %d", got, h.delivered)
	}
}

// TestGCListenerSeesEveryEvent: a GC listener reading the monitor sees
// every event made before the collection, all of it delivered before the
// report, and reading from the listener does not deadlock.
func TestGCListenerSeesEveryEvent(t *testing.T) {
	_, h, run := editor(t, 1<<20)
	reports := 0
	h.OnGCListener(func(free, capacity int64, freed bool) {
		reports++
		before := h.delivered
		if got := eventSum(h.Monitor); got != before {
			t.Errorf("report %d: the monitor counts %d events, %d were delivered before the report", reports, got, before)
		}
		var objects int64
		for _, n := range h.Graph().Nodes() {
			objects += n.TotalObjects
		}
		if _, _, creates, _, _ := h.Counts(); objects != creates {
			t.Errorf("report %d: graph holds %d objects, %d creations counted", reports, objects, creates)
		}
	})
	if err := run(300); err != nil {
		t.Fatal(err)
	}
	if reports < 5 {
		t.Fatalf("only %d collections", reports)
	}
}

// TestPressureHandlerReadsGraph: a memory-pressure handler snapshotting the
// graph neither deadlocks nor misses a creation.
func TestPressureHandlerReadsGraph(t *testing.T) {
	v, h, _ := editor(t, 64<<10)
	th := v.NewThread()
	created, calls := int64(0), 0
	v.SetPressureHandler(func(needed int64) bool {
		calls++
		var objects int64
		for _, n := range h.Graph().Nodes() {
			objects += n.TotalObjects
		}
		if objects != created {
			t.Errorf("pressure handler sees %d objects, %d were created", objects, created)
		}
		return false
	})
	for {
		// Top-level objects stay rooted until ClearTemps: the heap fills.
		if _, err := th.New("Buf", 1<<10); err != nil {
			if !errors.Is(err, vm.ErrOutOfMemory) {
				t.Fatal(err)
			}
			break
		}
		created++
	}
	if calls != 1 || created < 32 {
		t.Fatalf("%d pressure calls after %d creations", calls, created)
	}
}

// TestReadsRaceADriver: snapshots and delta pulls in a loop on one
// goroutine race a driver on another; run under -race this is the gate for
// the VM flush a read runs.
func TestReadsRaceADriver(t *testing.T) {
	_, h, run := editor(t, 1<<20)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var epoch int64
		for {
			select {
			case <-done:
				return
			default:
			}
			_ = h.Graph().Len()
			epoch = h.Delta(epoch).Epoch
		}
	}()
	err := run(2000)
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	got := eventSum(h.Monitor)
	h.flush()
	if got != h.delivered {
		t.Fatalf("counted %d events, the VM made %d", got, h.delivered)
	}
}
