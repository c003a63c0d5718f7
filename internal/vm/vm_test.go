package vm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aide/internal/trace"
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	_, err := reg.Register(ClassSpec{
		Name:         "Counter",
		Fields:       []string{"n", "peer"},
		StaticFields: []string{"total"},
		Methods: []MethodSpec{
			{Name: "inc", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				th.Work(10 * time.Microsecond)
				v, err := th.GetField(self, "n")
				if err != nil {
					return Nil(), err
				}
				n := v.I + 1
				return Int(n), th.SetField(self, "n", Int(n))
			}},
			{Name: "incPeer", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				p, err := th.GetField(self, "peer")
				if err != nil {
					return Nil(), err
				}
				return th.Invoke(p.Ref, "inc")
			}},
			{Name: "boom", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Nil(), errors.New("boom")
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = reg.Register(ClassSpec{
		Name: "Native",
		Methods: []MethodSpec{
			{Name: "sys", Native: true, Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Str("host"), nil
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestRegistryRejectsBadSpecs(t *testing.T) {
	reg := NewRegistry()
	cases := []ClassSpec{
		{Name: ""},
		{Name: "Dup"},
		{Name: "DupField", Fields: []string{"a", "a"}},
		{Name: "DupStatic", StaticFields: []string{"s", "s"}},
		{Name: "NoBody", Methods: []MethodSpec{{Name: "m"}}},
		{Name: "NoName", Methods: []MethodSpec{{Body: func(*Thread, ObjectID, []Value) (Value, error) { return Nil(), nil }}}},
	}
	if _, err := reg.Register(ClassSpec{Name: "Dup"}); err != nil {
		t.Fatal(err)
	}
	for i, spec := range cases {
		if _, err := reg.Register(spec); err == nil {
			t.Errorf("case %d (%s): accepted", i, spec.Name)
		}
	}
}

func TestClassPinnedAndStateless(t *testing.T) {
	reg := NewRegistry()
	body := func(*Thread, ObjectID, []Value) (Value, error) { return Nil(), nil }
	mustRegister(reg, ClassSpec{Name: "Plain", Methods: []MethodSpec{{Name: "m", Body: body}}})
	mustRegister(reg, ClassSpec{Name: "Nat", Methods: []MethodSpec{{Name: "m", Native: true, Body: body}}})
	mustRegister(reg, ClassSpec{Name: "Math", Methods: []MethodSpec{{Name: "m", Native: true, Stateless: true, Body: body}}})
	mustRegister(reg, ClassSpec{Name: "Mixed", Methods: []MethodSpec{
		{Name: "a", Native: true, Stateless: true, Body: body},
		{Name: "b", Native: true, Body: body},
	}})
	if reg.Class("Plain").Pinned() || reg.Class("Plain").NativeStateless() {
		t.Fatal("Plain misclassified")
	}
	if !reg.Class("Nat").Pinned() || reg.Class("Nat").NativeStateless() {
		t.Fatal("Nat misclassified")
	}
	if !reg.Class("Math").Pinned() || !reg.Class("Math").NativeStateless() {
		t.Fatal("Math misclassified")
	}
	if reg.Class("Mixed").NativeStateless() {
		t.Fatal("a class with any stateful native is not stateless")
	}
}

func TestInvokeAndFields(t *testing.T) {
	v := New(testRegistry(t), Config{HeapCapacity: 1 << 20})
	th := v.NewThread()
	c, err := th.New("Counter", 64)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("c", c)
	for i := 1; i <= 3; i++ {
		got, err := th.Invoke(c, "inc")
		if err != nil {
			t.Fatal(err)
		}
		if got.I != int64(i) {
			t.Fatalf("inc #%d = %d", i, got.I)
		}
	}
	if _, err := th.Invoke(c, "nope"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("unknown method err = %v", err)
	}
	if _, err := th.Invoke(ObjectID(999), "inc"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown object err = %v", err)
	}
	if _, err := th.GetField(c, "nope"); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("unknown field err = %v", err)
	}
	if _, err := th.Invoke(c, "boom"); err == nil || !errors.Is(err, err) {
		t.Fatal("body error must propagate")
	}
}

func TestStatics(t *testing.T) {
	v := New(testRegistry(t), Config{})
	th := v.NewThread()
	if err := th.SetStatic("Counter", "total", Int(5)); err != nil {
		t.Fatal(err)
	}
	got, err := th.GetStatic("Counter", "total")
	if err != nil || got.I != 5 {
		t.Fatalf("static = %v, %v", got, err)
	}
	if _, err := th.GetStatic("Counter", "nope"); !errors.Is(err, ErrNoSuchField) {
		t.Fatal("unknown static accepted")
	}
	if _, err := th.GetStatic("Nope", "x"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestClockAdvancesWithWorkScaledBySpeed(t *testing.T) {
	reg := testRegistry(t)
	slow := New(reg, Config{CPUSpeed: 1})
	fast := New(reg, Config{CPUSpeed: 4})
	for _, v := range []*VM{slow, fast} {
		th := v.NewThread()
		c, err := th.New("Counter", 64)
		if err != nil {
			t.Fatal(err)
		}
		v.SetRoot("c", c)
		if _, err := th.Invoke(c, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	if slow.Clock() != 4*fast.Clock() {
		t.Fatalf("clock scaling: slow %v, fast %v", slow.Clock(), fast.Clock())
	}
}

func TestGCReclaimsUnreachable(t *testing.T) {
	v := New(testRegistry(t), Config{HeapCapacity: 1 << 20})
	th := v.NewThread()
	a, err := th.New("Counter", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := th.New("Counter", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(a, "peer", RefOf(b)); err != nil {
		t.Fatal(err)
	}
	v.SetRoot("a", a)
	th.ClearTemps()
	v.Collect()
	if got := v.Heap().Live; got != 3000 {
		t.Fatalf("live = %d, want 3000 (b reachable through a)", got)
	}
	// Cut the reference: b must be reclaimed.
	if err := th.SetField(a, "peer", Nil()); err != nil {
		t.Fatal(err)
	}
	v.Collect()
	if got := v.Heap().Live; got != 1000 {
		t.Fatalf("live = %d, want 1000", got)
	}
	// Drop the root: everything goes.
	v.SetRoot("a", InvalidObject)
	v.Collect()
	if got := v.Heap().Live; got != 0 {
		t.Fatalf("live = %d, want 0", got)
	}
}

func TestGCKeepsStaticReferences(t *testing.T) {
	v := New(testRegistry(t), Config{})
	th := v.NewThread()
	c, err := th.New("Counter", 500)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetStatic("Counter", "total", RefOf(c)); err != nil {
		t.Fatal(err)
	}
	th.ClearTemps()
	v.Collect()
	if v.Heap().Live != 500 {
		t.Fatal("object referenced from static data was collected")
	}
}

func TestGCTempsProtectNewborns(t *testing.T) {
	// A tight allocation loop with a tiny GC threshold: newborns must
	// survive the threshold collections triggered by their own birth.
	reg := testRegistry(t)
	v := New(reg, Config{HeapCapacity: 1 << 20, GCObjectTrigger: 2})
	th := v.NewThread()
	ids := make([]ObjectID, 0, 16)
	for i := 0; i < 16; i++ {
		id, err := th.New("Counter", 100)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		if v.Object(id) == nil {
			t.Fatal("temp-rooted newborn was collected")
		}
	}
	th.ClearTemps()
	v.Collect()
	if v.Heap().Live != 0 {
		t.Fatal("ClearTemps did not release the newborns")
	}
}

func TestOOMAndPressureHandler(t *testing.T) {
	v := New(testRegistry(t), Config{HeapCapacity: 1024})
	th := v.NewThread()
	if _, err := th.New("Counter", 2048); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
	// A pressure handler that frees the offending space rescues.
	big, err := th.New("Counter", 900)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("big", big)
	th.ClearTemps()
	calls := 0
	v.SetPressureHandler(func(needed int64) bool {
		calls++
		v.SetRoot("big", InvalidObject)
		return true
	})
	if _, err := th.New("Counter", 900); err != nil {
		t.Fatalf("pressure handler should have rescued: %v", err)
	}
	if calls != 1 {
		t.Fatalf("handler called %d times", calls)
	}
}

func TestFreeObject(t *testing.T) {
	v := New(testRegistry(t), Config{})
	th := v.NewThread()
	id, err := th.New("Counter", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.Free(id); err != nil {
		t.Fatal(err)
	}
	if err := th.Free(id); !errors.Is(err, ErrNoSuchObject) {
		t.Fatal("double free must error")
	}
	h := v.Heap()
	if h.Live != 0 || h.Garbage != 100 {
		t.Fatalf("heap after free: %+v", h)
	}
	v.Collect()
	if v.Heap().Garbage != 0 {
		t.Fatal("garbage survived collection")
	}
}

func TestObjectsOfClass(t *testing.T) {
	v := New(testRegistry(t), Config{})
	th := v.NewThread()
	var want []ObjectID
	for i := 0; i < 5; i++ {
		id, err := th.New("Counter", 10)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, id)
	}
	got := v.ObjectsOfClass("Counter")
	if len(got) != 5 {
		t.Fatalf("got %d objects", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatal("IDs must be sorted")
		}
	}
	_ = want
	if n := len(v.ObjectsOfClass("Native")); n != 0 {
		t.Fatalf("Native count = %d", n)
	}
}

func TestNativeOnClientRunsLocally(t *testing.T) {
	v := New(testRegistry(t), Config{Role: RoleClient})
	th := v.NewThread()
	n, err := th.New("Native", 10)
	if err != nil {
		t.Fatal(err)
	}
	got, err := th.Invoke(n, "sys")
	if err != nil || got.S != "host" {
		t.Fatalf("native on client: %v %v", got, err)
	}
}

func TestSurrogateNativeWithoutPeerFails(t *testing.T) {
	v := New(testRegistry(t), Config{Role: RoleSurrogate})
	th := v.NewThread()
	if _, err := th.InvokeStatic("Native", "sys"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("err = %v, want ErrNotAttached", err)
	}
}

func TestMonitoringHooksFire(t *testing.T) {
	v := New(testRegistry(t), Config{})
	rec := &recordingHooks{}
	v.SetHooks(rec)
	th := v.NewThread()
	c, err := th.New("Counter", 64)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("c", c)
	if _, err := th.Invoke(c, "inc"); err != nil {
		t.Fatal(err)
	}
	v.Collect()
	// inc's field accesses are intra-class (Counter→Counter), which the
	// monitor does not record (paper §5.1).
	if rec.creates != 1 || rec.invokes != 1 || rec.accesses != 0 || rec.gcs != 1 {
		t.Fatalf("hooks: %+v", rec)
	}
	// Self time must be attributed to the callee, exclusive of nesting
	// (single frame here).
	if rec.lastSelf != 10*time.Microsecond {
		t.Fatalf("selfTime = %v", rec.lastSelf)
	}
}

func TestNestedSelfTimeAttribution(t *testing.T) {
	// Figure 9: outer works 20ms, nested works 100ms; outer's self time
	// must be 20ms.
	reg := NewRegistry()
	mustRegister(reg, ClassSpec{Name: "B", Methods: []MethodSpec{
		{Name: "g", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
			th.Work(100 * time.Millisecond)
			return Nil(), nil
		}},
	}})
	mustRegister(reg, ClassSpec{Name: "A", Fields: []string{"b"}, Methods: []MethodSpec{
		{Name: "f", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
			th.Work(20 * time.Millisecond)
			b, err := th.GetField(self, "b")
			if err != nil {
				return Nil(), err
			}
			return th.Invoke(b.Ref, "g")
		}},
	}})
	v := New(reg, Config{})
	rec := &recordingHooks{}
	v.SetHooks(rec)
	th := v.NewThread()
	a, _ := th.New("A", 10)
	b, _ := th.New("B", 10)
	v.SetRoot("a", a)
	if err := th.SetField(a, "b", RefOf(b)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(a, "f"); err != nil {
		t.Fatal(err)
	}
	rec.flush()
	if rec.self["A"] != 20*time.Millisecond || rec.self["B"] != 100*time.Millisecond {
		t.Fatalf("attribution: %v", rec.self)
	}
}

func TestMonitorCostChargesClock(t *testing.T) {
	reg := testRegistry(t)
	costed := New(reg, Config{MonitorCostPerEvent: time.Millisecond})
	costed.SetHooks(&recordingHooks{})
	free := New(reg, Config{MonitorCostPerEvent: time.Millisecond}) // no hooks → no charge
	for _, v := range []*VM{costed, free} {
		th := v.NewThread()
		c, err := th.New("Counter", 64)
		if err != nil {
			t.Fatal(err)
		}
		v.SetRoot("c", c)
		if _, err := th.Invoke(c, "inc"); err != nil {
			t.Fatal(err)
		}
	}
	if costed.Clock() <= free.Clock() {
		t.Fatalf("monitoring cost not charged: %v vs %v", costed.Clock(), free.Clock())
	}
}

// TestSetHooksDeliversToOldHooks: events buffered under one set of hooks
// reach those hooks when SetHooks replaces them, and none of them reach
// the new ones.
func TestSetHooksDeliversToOldHooks(t *testing.T) {
	v := New(testRegistry(t), Config{})
	old, next := &recordingHooks{}, &recordingHooks{}
	v.SetHooks(old)
	th := v.NewThread()
	c, err := th.New("Counter", 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(c, "inc"); err != nil {
		t.Fatal(err)
	}
	if old.creates != 0 || old.invokes != 0 {
		t.Fatalf("delivered before any delivery point: %+v", old)
	}
	v.SetHooks(next)
	if old.creates != 1 || old.invokes != 1 {
		t.Fatalf("old hooks after SetHooks: %+v, want 1 create and 1 invoke", old)
	}
	if _, err := th.Invoke(c, "inc"); err != nil {
		t.Fatal(err)
	}
	next.flush()
	if old.invokes != 1 || next.invokes != 1 || next.creates != 0 {
		t.Fatalf("after the swap: old %+v, new %+v", old, next)
	}
}

// TestRemoteSameClassAccessIsNotAnEvent: an access between two objects of
// one class is no interaction wherever the target lives. A frame of class
// C reading and writing a field of a C object that was offloaded (while a
// newer C object stayed local) reports no access, as the same access to a
// local C object does not.
func TestRemoteSameClassAccessIsNotAnEvent(t *testing.T) {
	reg := NewRegistry()
	mustRegister(reg, ClassSpec{Name: "C", Fields: []string{"val"}, Methods: []MethodSpec{
		{Name: "peek", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
			val, err := th.GetField(args[0].Ref, "val")
			if err != nil {
				return Nil(), err
			}
			return Nil(), th.SetField(args[0].Ref, "val", Int(val.I+1))
		}},
	}})
	client := New(reg, Config{Role: RoleClient})
	surrogate := New(reg, Config{Role: RoleSurrogate})
	cp, sp := wireLoopPair(client, surrogate)
	th := client.NewThread()
	old, err := th.New("C", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("old", old)
	offload(t, client, surrogate, cp, sp, "C")
	fresh, err := th.New("C", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("fresh", fresh)
	if !client.Object(old).Remote || client.Object(fresh).Remote {
		t.Fatal("want the old C remote and the fresh one local")
	}

	rec := &recordingHooks{}
	client.SetHooks(rec)
	for _, target := range []ObjectID{fresh, old} {
		if _, err := th.Invoke(fresh, "peek", RefOf(target)); err != nil {
			t.Fatal(err)
		}
	}
	rec.flush()
	if rec.invokes != 2 || rec.accesses != 0 {
		t.Fatalf("hooks saw %d invocations and %d accesses, want 2 and 0", rec.invokes, rec.accesses)
	}
}

// recordingHooks is a minimal Hooks capture.
type recordingHooks struct {
	invokes, accesses, creates, deletes, gcs int
	lastSelf                                 time.Duration
	self                                     map[string]time.Duration
	flush                                    func()
}

func (r *recordingHooks) OnEvents(t *trace.Trace, evs []trace.Event) {
	for _, e := range evs {
		switch e.Kind {
		case trace.KindInvoke:
			r.invokes++
			r.lastSelf = e.SelfTime
			if r.self == nil {
				r.self = map[string]time.Duration{}
			}
			r.self[t.Classes[e.Callee].Name] += e.SelfTime
		case trace.KindAccess:
			r.accesses++
		case trace.KindCreate:
			r.creates++
		case trace.KindDelete:
			r.deletes++
		}
	}
}
func (r *recordingHooks) OnGC(free, capacity int64, freed bool) { r.gcs++ }
func (r *recordingHooks) Attach(flush func())                   { r.flush = flush }

func TestValueWireSizes(t *testing.T) {
	cases := []struct {
		v    Value
		want int64
	}{
		{Nil(), 1},
		{Int(7), 8},
		{Float(1.5), 8},
		{Bool(true), 1},
		{Str("abcd"), 8},
		{Blob(make([]byte, 100)), 104},
		{RefOf(3), 12},
	}
	for i, c := range cases {
		if got := c.v.WireSize(); got != c.want {
			t.Errorf("case %d (%s): WireSize = %d, want %d", i, c.v, got, c.want)
		}
	}
	if WireSizeAll([]Value{Int(1), Bool(false)}) != 9 {
		t.Fatal("WireSizeAll wrong")
	}
	if !Nil().IsNil() || !RefOf(InvalidObject).IsNil() || Int(0).IsNil() {
		t.Fatal("IsNil wrong")
	}
}

func TestValueStrings(t *testing.T) {
	for _, v := range []Value{Nil(), Int(1), Float(2), Bool(true), Str("s"), Blob(nil), RefOf(1), {Kind: ValueKind(99)}} {
		if v.String() == "" {
			t.Fatalf("empty String() for %v", v.Kind)
		}
	}
}

func TestRoleString(t *testing.T) {
	if RoleClient.String() != "client" || RoleSurrogate.String() != "surrogate" {
		t.Fatal("role names wrong")
	}
	if Role(9).String() == "" {
		t.Fatal("unknown role must still print")
	}
}

func TestHeapStats(t *testing.T) {
	v := New(testRegistry(t), Config{HeapCapacity: 10_000})
	th := v.NewThread()
	if _, err := th.New("Counter", 4000); err != nil {
		t.Fatal(err)
	}
	h := v.Heap()
	if h.Capacity != 10_000 || h.Live != 4000 || h.Free != 6000 || h.Objects != 1 {
		t.Fatalf("heap = %+v", h)
	}
}

func TestDeterministicTraceAcrossRuns(t *testing.T) {
	// Two identical runs must produce identical hook streams (GC sweeps
	// in sorted order; no map-iteration nondeterminism).
	run := func() []string {
		reg := testRegistry(t)
		v := New(reg, Config{HeapCapacity: 64 << 10, GCObjectTrigger: 8})
		log := &loggingHooks{}
		v.SetHooks(log)
		th := v.NewThread()
		for i := 0; i < 100; i++ {
			id, err := th.New("Counter", 512)
			if err != nil {
				t.Fatal(err)
			}
			if i%2 == 0 {
				v.SetRoot("keep", id)
			}
			th.ClearTemps()
		}
		v.Collect()
		return log.events
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

type loggingHooks struct{ events []string }

func (l *loggingHooks) OnEvents(t *trace.Trace, evs []trace.Event) {
	for _, e := range evs {
		l.events = append(l.events, fmt.Sprintf("%s %s %s %d %d",
			e.Kind, t.Classes[e.Caller].Name, t.Classes[e.Callee].Name, e.Obj, e.Bytes))
	}
}
func (l *loggingHooks) OnGC(free, capacity int64, freed bool) {
	l.events = append(l.events, fmt.Sprintf("g %d %t", free, freed))
}
func (l *loggingHooks) Attach(flush func()) {}
