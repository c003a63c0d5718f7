package apps

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/trace"
	"aide/internal/vm"
)

// tinySpec is a minimal recordable application whose Build invocations are
// counted, with an optional one-shot transient failure.
func tinySpec(builds *atomic.Int32, failFirst *atomic.Bool) *Spec {
	return &Spec{
		Name:       "tiny",
		RecordHeap: 1 << 20,
		Build: func() (*vm.Registry, Driver, error) {
			builds.Add(1)
			if failFirst != nil && failFirst.CompareAndSwap(true, false) {
				return nil, nil, errors.New("transient build failure")
			}
			b := newBench()
			b.worker("Tiny", time.Microsecond, 8)
			reg, err := b.build()
			if err != nil {
				return nil, nil, err
			}
			driver := func(th *vm.Thread) error {
				id, err := th.New("Tiny", 256)
				if err != nil {
					return err
				}
				for i := 0; i < 16; i++ {
					if _, err := th.Invoke(id, "ping", vm.Int(0)); err != nil {
						return err
					}
				}
				return nil
			}
			return reg, driver, nil
		},
	}
}

// TestCacheConcurrentGetRecordsOnce checks the singleflight contract:
// concurrent Gets of the same spec share one Record call and one trace.
func TestCacheConcurrentGetRecordsOnce(t *testing.T) {
	var builds atomic.Int32
	spec := tinySpec(&builds, nil)
	c := NewCache()

	const callers = 16
	traces := make([]*trace.Trace, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			traces[i], errs[i] = c.Get(spec)
		}(i)
	}
	close(start)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("Build ran %d times, want exactly 1", n)
	}
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if traces[i] == nil || traces[i] != traces[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
}

// TestCacheRetriesAfterFailure checks that a failed flight reports its error
// to that flight's waiters but is then forgotten, so a later Get re-records.
func TestCacheRetriesAfterFailure(t *testing.T) {
	var builds atomic.Int32
	var failFirst atomic.Bool
	failFirst.Store(true)
	spec := tinySpec(&builds, &failFirst)
	c := NewCache()

	if _, err := c.Get(spec); err == nil {
		t.Fatal("first Get should surface the transient build failure")
	}
	tr, err := c.Get(spec)
	if err != nil {
		t.Fatalf("second Get: %v", err)
	}
	if tr == nil {
		t.Fatal("second Get returned a nil trace")
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("Build ran %d times, want 2 (fail, then retry)", n)
	}

	// A third Get must hit the cache.
	tr2, err := c.Get(spec)
	if err != nil || tr2 != tr {
		t.Fatalf("third Get: trace=%p err=%v, want cached %p", tr2, err, tr)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("Build ran %d times after warm Get, want 2", n)
	}
}

// tapSpec is a small application for TestRecordTapRoundTrip. Its registry
// lists Unused, Arr, Math, UI, Helper, Main in that order; Main.run calls
// Helper.work, which calls the stateless native Math.sqrt, then allocates,
// writes and drops an Arr, and calls the stateful native UI.draw.
func tapSpec() *Spec {
	nop := func(th *vm.Thread, _ vm.ObjectID, _ []vm.Value) (vm.Value, error) { return vm.Int(0), nil }
	return &Spec{
		Name:       "tap",
		RecordHeap: 1 << 20,
		Build: func() (*vm.Registry, Driver, error) {
			reg := vm.NewRegistry()
			specs := []vm.ClassSpec{
				{Name: "Unused", Methods: []vm.MethodSpec{{Name: "m", Static: true, Body: nop}}},
				{Name: "Arr", Fields: []string{"data"}, Array: true},
				{Name: "Math", Methods: []vm.MethodSpec{{Name: "sqrt", Native: true, Stateless: true, Static: true, Body: nop}}},
				{Name: "UI", Methods: []vm.MethodSpec{{Name: "draw", Native: true, Static: true, Body: nop}}},
				{Name: "Helper", Methods: []vm.MethodSpec{{Name: "work", Static: true,
					Body: func(th *vm.Thread, _ vm.ObjectID, _ []vm.Value) (vm.Value, error) {
						return th.InvokeStatic("Math", "sqrt")
					}}}},
				{Name: "Main", Methods: []vm.MethodSpec{{Name: "run", Static: true,
					Body: func(th *vm.Thread, _ vm.ObjectID, _ []vm.Value) (vm.Value, error) {
						if _, err := th.InvokeStatic("Helper", "work"); err != nil {
							return vm.Nil(), err
						}
						id, err := th.New("Arr", 4096)
						if err != nil {
							return vm.Nil(), err
						}
						if err := th.SetField(id, "data", vm.Blob(make([]byte, 64))); err != nil {
							return vm.Nil(), err
						}
						return th.InvokeStatic("UI", "draw")
					}}}},
			}
			for _, s := range specs {
				if _, err := reg.Register(s); err != nil {
					return nil, nil, err
				}
			}
			driver := func(th *vm.Thread) error {
				_, err := th.InvokeStatic("Main", "run")
				return err
			}
			return reg, driver, nil
		},
	}
}

// TestRecordTapRoundTrip checks what Record's tap makes of a VM's stream:
// the header, classes numbered in first-sight order with an invocation's or
// access's caller before its callee, an unused class left out, the class
// flags, the events' native and stateless flags, Caller 0 on creations and
// deletions, and the collection report after its cycle's deletions.
func TestRecordTapRoundTrip(t *testing.T) {
	tr, err := Record(tapSpec())
	if err != nil {
		t.Fatal(err)
	}
	if tr.App != "tap" || tr.HeapCapacity != 1<<20 {
		t.Fatalf("header: app %q heap %d", tr.App, tr.HeapCapacity)
	}
	// Helper calls Math before anything else happens: Helper is seen
	// first although Math was registered first.
	wantClasses := []trace.ClassInfo{
		{Name: "Helper"},
		{Name: "Math", Pinned: true, Stateless: true},
		{Name: "Main"},
		{Name: "Arr", Array: true},
		{Name: "UI", Pinned: true},
	}
	if len(tr.Classes) != len(wantClasses) {
		t.Fatalf("classes = %+v, want %+v", tr.Classes, wantClasses)
	}
	for i, c := range wantClasses {
		if tr.Classes[i] != c {
			t.Fatalf("class %d = %+v, want %+v", i, tr.Classes[i], c)
		}
	}
	const helper, math, main, arr, ui = 0, 1, 2, 3, 4
	type ev struct {
		kind           trace.EventKind
		caller, callee trace.ClassID
		native, sl     bool
	}
	want := []ev{
		{trace.KindInvoke, helper, math, true, true},
		{trace.KindInvoke, main, helper, false, false},
		{trace.KindCreate, 0, arr, false, false},
		{trace.KindAccess, main, arr, false, false},
		{trace.KindInvoke, main, ui, true, false},
		{trace.KindInvoke, main, main, false, false}, // the entry call has no caller
		{trace.KindDelete, 0, arr, false, false},
		{trace.KindGC, 0, 0, false, false},
	}
	if len(tr.Events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(tr.Events), len(want), tr.Events)
	}
	for i, w := range want {
		e := tr.Events[i]
		if got := (ev{e.Kind, e.Caller, e.Callee, e.Native, e.Stateless}); got != w {
			t.Fatalf("event %d = %+v, want %+v", i, got, w)
		}
	}
	if e := tr.Events[2]; e.Bytes != 4096 || e.Obj != tr.Events[6].Obj || e.Obj == 0 {
		t.Fatalf("create %+v does not match delete %+v", e, tr.Events[6])
	}
	if gc := tr.Events[7]; gc.Capacity != 1<<20 || !gc.Freed || gc.Free != 1<<20 {
		t.Fatalf("gc event = %+v", gc)
	}
}
