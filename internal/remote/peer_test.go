package remote

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aide/internal/netmodel"
	"aide/internal/vm"
)

// testRegistry builds a small application: a pinned UI class (native
// method), an offloadable Doc class holding text, and a stateless native
// math class.
func testRegistry(t *testing.T) *vm.Registry {
	t.Helper()
	reg := vm.NewRegistry()
	mustRegister(reg, vm.ClassSpec{
		Name:   "UI",
		Fields: []string{"doc"},
		Methods: []vm.MethodSpec{
			{Name: "draw", Native: true, Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				th.Work(time.Millisecond)
				return vm.Int(1), nil
			}},
			{Name: "edit", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				doc, err := th.GetField(self, "doc")
				if err != nil {
					return vm.Nil(), err
				}
				return th.Invoke(doc.Ref, "append", args...)
			}},
		},
	})
	mustRegister(reg, vm.ClassSpec{
		Name:         "Doc",
		Fields:       []string{"len", "title"},
		StaticFields: []string{"count"},
		Methods: []vm.MethodSpec{
			{Name: "append", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				th.Work(100 * time.Microsecond)
				cur, err := th.GetField(self, "len")
				if err != nil {
					return vm.Nil(), err
				}
				n := cur.I + args[0].I
				if err := th.SetField(self, "len", vm.Int(n)); err != nil {
					return vm.Nil(), err
				}
				return vm.Int(n), nil
			}},
			{Name: "me", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				return vm.RefOf(self), nil
			}},
			{Name: "sqrt", Native: true, Stateless: true, Static: true, Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				th.Work(10 * time.Microsecond)
				return vm.Float(1.41), nil
			}},
		},
	})
	return reg
}

func newPlatform(t *testing.T) (client, surrogate *vm.VM, pc, ps *Peer) {
	t.Helper()
	reg := testRegistry(t)
	client = vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate = vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20, CPUSpeed: 3.5})
	link := netmodel.WaveLAN()
	pc, ps = NewPair(client, surrogate, Options{Workers: 2, Link: &link})
	t.Cleanup(func() {
		if err := pc.Close(); err != nil {
			t.Errorf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("close surrogate peer: %v", err)
		}
	})
	return client, surrogate, pc, ps
}

func TestRemoteInvocationAfterOffload(t *testing.T) {
	client, surrogate, pc, _ := newPlatform(t)

	th := client.NewThread()
	ui, err := th.New("UI", 128)
	if err != nil {
		t.Fatalf("new UI: %v", err)
	}
	client.SetRoot("ui", ui)
	doc, err := th.New("Doc", 4096)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	if err := th.SetField(ui, "doc", vm.RefOf(doc)); err != nil {
		t.Fatalf("set field: %v", err)
	}
	if _, err := th.Invoke(ui, "edit", vm.Int(10)); err != nil {
		t.Fatalf("local edit: %v", err)
	}

	// Offload Doc objects to the surrogate.
	n, bytes, err := pc.Offload([]string{"Doc"})
	if err != nil {
		t.Fatalf("offload: %v", err)
	}
	if n != 1 || bytes <= 0 {
		t.Fatalf("offload moved %d objects, %d bytes; want 1, >0", n, bytes)
	}
	if got := client.Object(doc); !got.Remote {
		t.Fatal("client Doc should be a stub after offload")
	}
	if live := surrogate.Heap().Live; live < 4096 {
		t.Fatalf("surrogate live bytes = %d, want >= 4096", live)
	}

	// Invocations now transparently cross to the surrogate.
	ret, err := th.Invoke(ui, "edit", vm.Int(5))
	if err != nil {
		t.Fatalf("edit after offload: %v", err)
	}
	if ret.I != 15 {
		t.Fatalf("edit returned %d, want 15 (state must survive migration)", ret.I)
	}

	// Field reads cross too.
	v, err := th.GetField(doc, "len")
	if err != nil {
		t.Fatalf("remote get field: %v", err)
	}
	if v.I != 15 {
		t.Fatalf("remote field read = %d, want 15", v.I)
	}

	// Every crossing above was charged to the simulated clock at its
	// frames' lengths over the WaveLAN link. The figure is what the size
	// mirror this codec once carried charged for the same sequence.
	if err := th.SetField(doc, "title", vm.Str("a title that costs bytes on the link")); err != nil {
		t.Fatalf("remote set field: %v", err)
	}
	if got, want := client.Clock(), 11806386*time.Nanosecond; got != want {
		t.Fatalf("simulated clock after the sequence = %v, want %v", got, want)
	}
}

func TestNativeRoutesBackToClient(t *testing.T) {
	client, surrogate, pc, _ := newPlatform(t)

	th := client.NewThread()
	ui, err := th.New("UI", 128)
	if err != nil {
		t.Fatalf("new UI: %v", err)
	}
	client.SetRoot("ui", ui)
	doc, err := th.New("Doc", 1024)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	client.SetRoot("doc", doc)
	if _, _, err := pc.Offload([]string{"Doc"}); err != nil {
		t.Fatalf("offload: %v", err)
	}

	// A native static invoked on the surrogate must be directed back to
	// the client by default.
	sth := surrogate.NewThread()
	before := surrogate.Clock()
	if _, err := sth.InvokeStatic("Doc", "sqrt"); err != nil {
		t.Fatalf("surrogate native static: %v", err)
	}
	if surrogate.Clock() <= before {
		t.Fatal("surrogate clock should advance by the remote native cost")
	}

	// With the stateless enhancement the call executes locally.
	surrogate.SetStatelessNativeLocal(true)
	if _, err := sth.InvokeStatic("Doc", "sqrt"); err != nil {
		t.Fatalf("surrogate stateless native: %v", err)
	}
}

func TestStaticDataServedByClient(t *testing.T) {
	client, surrogate, _, _ := newPlatform(t)
	cth := client.NewThread()
	if err := cth.SetStatic("Doc", "count", vm.Int(7)); err != nil {
		t.Fatalf("client set static: %v", err)
	}
	sth := surrogate.NewThread()
	v, err := sth.GetStatic("Doc", "count")
	if err != nil {
		t.Fatalf("surrogate get static: %v", err)
	}
	if v.I != 7 {
		t.Fatalf("surrogate read static = %d, want 7 (statics live on the client)", v.I)
	}
	if err := sth.SetStatic("Doc", "count", vm.Int(9)); err != nil {
		t.Fatalf("surrogate set static: %v", err)
	}
	v2, err := cth.GetStatic("Doc", "count")
	if err != nil {
		t.Fatalf("client get static: %v", err)
	}
	if v2.I != 9 {
		t.Fatalf("client read static = %d, want 9", v2.I)
	}
}

func TestDistributedGCReleasesExports(t *testing.T) {
	client, surrogate, pc, _ := newPlatform(t)

	th := client.NewThread()
	doc, err := th.New("Doc", 2048)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	client.SetRoot("doc", doc)
	if _, _, err := pc.Offload([]string{"Doc"}); err != nil {
		t.Fatalf("offload: %v", err)
	}
	if surrogate.Heap().Live < 2048 {
		t.Fatal("object should live on surrogate")
	}

	// Drop the client's only reference; collecting the stub must release
	// the surrogate object. A lone release waits in the client's batch
	// until its next blocking call, which ships it first.
	th.ClearTemps()
	client.SetRoot("doc", vm.InvalidObject)
	client.Collect()
	if err := pc.Ping(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for surrogate.Heap().Live >= 2048 && time.Now().Before(deadline) {
		surrogate.Collect()
		time.Sleep(5 * time.Millisecond)
	}
	if live := surrogate.Heap().Live; live >= 2048 {
		t.Fatalf("surrogate live = %d; release should have unpinned the migrated object", live)
	}
}

func TestOOMWithoutOffload(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 8 << 10})
	th := client.NewThread()
	var last vm.ObjectID
	var err error
	for i := 0; i < 64; i++ {
		var id vm.ObjectID
		id, err = th.New("Doc", 1024)
		if err != nil {
			break
		}
		// Chain the objects so they stay reachable.
		if last != vm.InvalidObject {
			if serr := th.SetField(id, "title", vm.RefOf(last)); serr != nil {
				t.Fatalf("set: %v", serr)
			}
		}
		client.SetRoot("head", id)
		last = id
	}
	if !errors.Is(err, vm.ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory (the unmodified VM fails)", err)
	}
}

func TestPressureHandlerRescuesAllocation(t *testing.T) {
	client, _, pc, _ := newPlatform(t)
	client.SetPressureHandler(func(needed int64) bool {
		_, _, err := pc.Offload([]string{"Doc"})
		return err == nil
	})
	th := client.NewThread()
	var prev vm.ObjectID
	for i := 0; i < 2048; i++ { // 2048 KiB of Doc through a 1 MiB heap
		id, err := th.New("Doc", 1024)
		if err != nil {
			t.Fatalf("alloc %d failed despite offloading: %v", i, err)
		}
		if prev != vm.InvalidObject {
			if err := th.SetField(id, "title", vm.RefOf(prev)); err != nil {
				t.Fatalf("set: %v", err)
			}
		}
		client.SetRoot("head", id)
		prev = id
	}
}

func TestPingAndClose(t *testing.T) {
	_, _, pc, ps := newPlatform(t)
	if err := pc.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := ps.Ping(); err != nil {
		t.Fatalf("reverse ping: %v", err)
	}
}

// mustRegister registers a class during test setup, panicking on the spec
// errors that Register reports (setup bugs, not remote behavior).
func mustRegister(reg *vm.Registry, spec vm.ClassSpec) {
	if _, err := reg.Register(spec); err != nil {
		panic(err)
	}
}

// TestInfoRTTFakeClock verifies the probe's round-trip measurement uses
// the injectable clock: with a deterministic clock that advances 5 ms per
// reading, the measured RTT is exactly 5 ms (one reading before the call,
// one after).
func TestInfoRTTFakeClock(t *testing.T) {
	reg := testRegistry(t)
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 1 << 20})

	base := time.Unix(1_000_000, 0)
	var readings atomic.Int64
	fake := func() time.Time {
		return base.Add(time.Duration(readings.Add(1)) * 5 * time.Millisecond)
	}
	pc, ps := NewPair(client, surrogate, Options{Workers: 1, Now: fake})
	defer func() {
		if err := pc.Close(); err != nil {
			t.Errorf("close client peer: %v", err)
		}
		if err := ps.Close(); err != nil {
			t.Errorf("close surrogate peer: %v", err)
		}
	}()

	info, err := pc.Info()
	if err != nil {
		t.Fatalf("Info: %v", err)
	}
	if info.RTT != 5*time.Millisecond {
		t.Fatalf("RTT = %v with fake clock, want exactly 5ms", info.RTT)
	}
	if got := readings.Load(); got != 2 {
		t.Fatalf("clock read %d times during Info, want 2", got)
	}
}
