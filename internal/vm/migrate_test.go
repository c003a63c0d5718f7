package vm

import (
	"errors"
	"maps"
	"strings"
	"testing"
	"time"
)

// TestLoopMigrationRoundTrip drives the full offload lifecycle over the
// in-package loop peer: extract/adopt/convert, transparent remote
// invocation with intra-batch and stay-behind references, remote field
// access, static redirection to the client, native routing, stateless
// natives, clock accounting, and distributed-GC export pins.
func TestLoopMigrationRoundTrip(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)

	th := client.NewThread()
	a, err := th.New("Node", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := th.New("Node", 1000)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := th.New("Keep", 500)
	if err != nil {
		t.Fatal(err)
	}
	// a -> b -> keep; keep stays behind.
	mustSet := func(id ObjectID, field string, v Value) {
		t.Helper()
		if err := th.SetField(id, field, v); err != nil {
			t.Fatalf("set %v.%s: %v", id, field, err)
		}
	}
	mustSet(a, "val", Int(1))
	mustSet(a, "next", RefOf(b))
	mustSet(b, "val", Int(2))
	mustSet(b, "next", RefOf(keep))
	mustSet(keep, "val", Int(7))
	client.SetRoot("a", a)
	client.SetRoot("keep", keep)

	liveBefore := client.Heap().Live
	ids, assigned := offload(t, client, surrogate, cp, sp, "Node")
	if len(ids) != 2 || len(assigned) != 2 {
		t.Fatalf("migrated %d/%d objects, want 2", len(ids), len(assigned))
	}
	if client.Heap().Live >= liveBefore {
		t.Fatalf("client live bytes did not drop after offload: %d -> %d", liveBefore, client.Heap().Live)
	}
	// The stay-behind object is pinned by the surrogate's stub.
	if n := client.ExportCount(keep); n != 1 {
		t.Fatalf("ExportCount(keep) = %d, want 1 (referenced from the migrated batch)", n)
	}

	// Transparent chain walk: a and b execute on the surrogate, keep back
	// on the client, results flowing through both namespaces.
	ret, err := th.Invoke(a, "sum")
	if err != nil {
		t.Fatalf("remote sum: %v", err)
	}
	if ret.I != 1+2+7 {
		t.Fatalf("sum = %d, want 10", ret.I)
	}

	// Remote field access via the stub.
	if err := th.SetField(a, "val", Int(100)); err != nil {
		t.Fatalf("remote set: %v", err)
	}
	got, err := th.GetField(a, "val")
	if err != nil || got.I != 100 {
		t.Fatalf("remote get = %v err=%v, want 100", got, err)
	}

	// Static data is redirected to the client even from surrogate-side
	// method bodies.
	if err := th.SetStatic("Node", "config", Int(41)); err != nil {
		t.Fatalf("setstatic: %v", err)
	}
	if v, err := th.Invoke(a, "readCfg"); err != nil || v.I != 41 {
		t.Fatalf("remote readCfg = %v err=%v, want 41", v, err)
	}
	if _, err := th.Invoke(a, "writeCfg", Int(42)); err != nil {
		t.Fatalf("remote writeCfg: %v", err)
	}
	if v, err := th.GetStatic("Node", "config"); err != nil || v.I != 42 {
		t.Fatalf("config after remote write = %v err=%v, want 42", v, err)
	}

	// Native statics are directed back to the client...
	if v, err := th.Invoke(a, "hostname"); err != nil || v.S != "client" {
		t.Fatalf("remote hostname = %v err=%v, want \"client\"", v, err)
	}
	// ...unless stateless and the §5.2 enhancement is on.
	surrogate.SetStatelessNativeLocal(true)
	if v, err := th.Invoke(a, "abs", Int(-4)); err != nil || v.I != 4 {
		t.Fatalf("stateless abs = %v err=%v, want 4", v, err)
	}

	// Remote execution time is charged to the caller, not the server.
	surClock := surrogate.Clock()
	clkBefore := client.Clock()
	if _, err := th.Invoke(a, "work"); err != nil {
		t.Fatalf("remote work: %v", err)
	}
	if d := client.Clock() - clkBefore; d < time.Millisecond {
		t.Fatalf("client clock advanced %v, want >= 1ms (charged remote execution)", d)
	}
	if surrogate.Clock() != surClock {
		t.Fatalf("surrogate clock moved %v; serving must roll its clock back", surrogate.Clock()-surClock)
	}

	// Dropping the surrogate's stub for keep releases the export pin.
	stub, err := surrogate.StubFor(sp.selfIdx, keep, "Keep")
	if err != nil {
		t.Fatal(err)
	}
	if err := surrogate.FreeObject(stub); err != nil {
		t.Fatalf("free stub: %v", err)
	}
	if n := client.ExportCount(keep); n != 0 {
		t.Fatalf("ExportCount(keep) = %d after stub release, want 0", n)
	}
	if n := client.ExportCount(ObjectID(99999)); n != 0 {
		t.Fatalf("ExportCount(unknown) = %d, want 0", n)
	}

	// Accessor smoke: these are load-bearing for diagnostics and policy.
	if client.Role() != RoleClient || surrogate.Role() != RoleSurrogate {
		t.Fatal("Role() mismatch")
	}
	if client.Registry() != surrogate.Registry() {
		t.Fatal("Registry() must be the shared registry")
	}
	if client.CPUSpeed() != 1 {
		t.Fatalf("CPUSpeed() = %v, want 1", client.CPUSpeed())
	}
	if th.VM() != client {
		t.Fatal("Thread.VM() mismatch")
	}
	if id, ok := client.Root("a"); !ok || id != a {
		t.Fatalf("Root(a) = %v,%v", id, ok)
	}
	names := client.Registry().Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v, want 4 classes", names)
	}
	methods := client.Registry().Class("Node").Methods()
	if len(methods) != 8 || methods[0] > methods[len(methods)-1] {
		t.Fatalf("Methods() = %v, want 8 sorted names", methods)
	}
}

// TestLoopMigrationRefArguments covers reference passing in both
// directions: a client-local ref argument exports the object to the
// surrogate, and a surrogate-local return ref materializes as a client
// stub.
func TestLoopMigrationRefArguments(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)

	th := client.NewThread()
	node, err := th.New("Node", 800)
	if err != nil {
		t.Fatal(err)
	}
	local, err := th.New("Keep", 300)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(local, "val", Int(9)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)
	client.SetRoot("local", local)
	offload(t, client, surrogate, cp, sp, "Node")

	// Ship a client-local reference as an argument: the encode exports
	// it, the surrogate gets a typed stub, and writing through the field
	// ends up routed back to the client copy.
	if _, err := th.Invoke(node, "setVal", Int(5)); err != nil {
		t.Fatalf("remote setVal: %v", err)
	}
	if err := th.SetField(node, "next", RefOf(local)); err != nil {
		t.Fatalf("remote set ref field: %v", err)
	}
	if n := client.ExportCount(local); n == 0 {
		t.Fatal("shipping a local ref must export (pin) the object")
	}
	// The chain now crosses namespaces twice: node (surrogate) -> local
	// (client).
	if ret, err := th.Invoke(node, "sum"); err != nil || ret.I != 5+9 {
		t.Fatalf("cross-namespace sum = %v err=%v, want 14", ret, err)
	}

	// Reading the ref field back returns a receiver-local reference that
	// maps to the original client object, not a new stub.
	got, err := th.GetField(node, "next")
	if err != nil {
		t.Fatalf("remote get ref: %v", err)
	}
	if got.Kind != KindRef || got.Ref != local {
		t.Fatalf("round-tripped ref = %+v, want the original local id %d", got, local)
	}
}

// TestMigrationFailurePaths pins every error branch of the migrate
// half: dangling refs at extraction, unknown classes and malformed
// batches at adoption, and the ConvertToStubs preconditions. A rejected
// batch changes nothing on the receiver: not its heap, not its objects,
// not its import table.
func TestMigrationFailurePaths(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)
	_ = cp

	th := client.NewThread()
	node, err := th.New("Node", 400)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := th.New("Keep", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "next", RefOf(victim)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)

	// A dangling field reference (the referent was explicitly freed) must
	// abort extraction, not ship garbage.
	if err := client.FreeObject(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ExtractMigration(nil, []string{"Node"}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("extract with dangling ref: err = %v, want ErrNoSuchObject", err)
	}
	if err := th.SetField(node, "next", Nil()); err != nil {
		t.Fatal(err)
	}

	// The receiver holds a stub for the sender's object 5, which a
	// rejected batch must leave a stub.
	stub, err := surrogate.StubFor(sp.selfIdx, 5, "Keep")
	if err != nil {
		t.Fatal(err)
	}
	heap, imports := surrogate.Heap(), maps.Clone(surrogate.imports[sp.selfIdx])
	keep := refMigratedObject{SenderID: 1, Class: "Keep", Size: 10}
	upgrade := refMigratedObject{SenderID: 5, Class: "Keep", Size: 10}
	for _, tc := range []struct {
		name, want string
		batch      []refMigratedObject
	}{
		{"unknown class", "unknown class", []refMigratedObject{{SenderID: 1, Class: "Nope"}}},
		{"unknown class after a good entry", "unknown class", []refMigratedObject{keep, {SenderID: 2, Class: "Nope"}}},
		{"unknown class after a stub upgrade", "unknown class", []refMigratedObject{upgrade, {SenderID: 6, Class: "Nope"}}},
		{"more fields than the class declares", "out of range", []refMigratedObject{
			{SenderID: 1, Class: "Keep", Size: 10, Fields: []WireValue{{Kind: KindInt, I: 1}, {Kind: KindInt, I: 2}}}}},
		{"a field stub of an unknown class", "unknown class", []refMigratedObject{keep, upgrade,
			{SenderID: 7, Class: "Keep", Size: 10, Fields: []WireValue{{Kind: KindRef, Ref: WireRef{ID: 77, Class: "Nope"}}}}}},
		{"a field stub with no class name", "unknown class", []refMigratedObject{keep, upgrade,
			{SenderID: 7, Class: "Keep", Size: 10, Fields: []WireValue{{Kind: KindRef, Ref: WireRef{ID: 77}}}}}},
		{"sender IDs out of order", "ascending", []refMigratedObject{upgrade, keep}},
		{"a sender ID twice", "ascending", []refMigratedObject{keep, keep}},
	} {
		if _, err := surrogate.AdoptMigration(sp.selfIdx, refAppendBatch(nil, tc.batch)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("adopt %s: err = %v, want %q", tc.name, err, tc.want)
		}
		if h := surrogate.Heap(); h.Live != heap.Live || h.Objects != heap.Objects {
			t.Fatalf("adopt %s: heap %d B in %d objects after the rejection, was %d B in %d", tc.name, h.Live, h.Objects, heap.Live, heap.Objects)
		}
		if !maps.Equal(surrogate.imports[sp.selfIdx], imports) {
			t.Fatalf("adopt %s: import table %v after the rejection, was %v", tc.name, surrogate.imports[sp.selfIdx], imports)
		}
		if o := surrogate.Object(stub); o == nil || !o.Remote {
			t.Fatalf("adopt %s: the stub for the sender's #5 was upgraded by a rejected batch", tc.name)
		}
	}

	// ConvertToStubs preconditions.
	if err := client.ConvertToStubs(0, []ObjectID{node}, nil); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if err := client.ConvertToStubs(0, []ObjectID{99999}, []ObjectID{1}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("converting an unknown object: err = %v", err)
	}
	if err := client.ConvertToStubs(0, []ObjectID{node}, []ObjectID{50}); err != nil {
		t.Fatalf("first convert: %v", err)
	}
	if err := client.ConvertToStubs(0, []ObjectID{node}, []ObjectID{50}); err == nil || !strings.Contains(err.Error(), "already a stub") {
		t.Fatalf("double convert: err = %v", err)
	}
}

// TestAdoptPinsForTheSendersStub: each adopted object carries one export
// pin for the stub its sender keeps, so a collection on the receiver — the
// surrogate's next allocation may run one — keeps migrated state only the
// sender references, and the pin goes when the sender's collector drops
// that stub.
func TestAdoptPinsForTheSendersStub(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)
	th := client.NewThread()
	node, err := th.New("Node", 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "val", Int(11)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)
	_, assigned := offload(t, client, surrogate, cp, sp, "Node")
	if n := surrogate.ExportCount(assigned[0]); n != 1 {
		t.Fatalf("adopted object's export count = %d, want 1", n)
	}
	surrogate.Collect()
	if h := surrogate.Heap(); h.Objects != 1 || h.Live != 600 {
		t.Fatalf("surrogate holds %d B in %d objects after a collection, want the migrated 600 B in 1", h.Live, h.Objects)
	}
	if ret, err := th.Invoke(node, "getVal"); err != nil || ret.I != 11 {
		t.Fatalf("getVal through the stub = %v, %v; want 11", ret, err)
	}

	th.ClearTemps()
	client.SetRoot("node", InvalidObject)
	client.Collect() // the stub dies and releases the pin
	surrogate.Collect()
	if h := surrogate.Heap(); h.Objects != 0 || h.Live != 0 {
		t.Fatalf("surrogate holds %d B in %d objects after the sender's stub died, want none", h.Live, h.Objects)
	}
}

// TestPartialMigrationLeavesObjectsLocal models the sever-mid-migration
// case: a batch was extracted (and maybe even adopted) but the
// ConvertToStubs acknowledgment never happened. The client's objects
// must remain fully usable locally — extraction alone has no local side
// effects beyond export pins.
func TestPartialMigrationLeavesObjectsLocal(t *testing.T) {
	client, surrogate, _, sp := newLoopVMs(t)

	th := client.NewThread()
	node, err := th.New("Node", 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "val", Int(11)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)

	mig, err := client.ExtractMigration(nil, []string{"Node"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := surrogate.AdoptMigration(sp.selfIdx, mig.Batch); err != nil {
		t.Fatal(err)
	}
	// The link dies here: no ConvertToStubs. The client object must still
	// be local and live.
	if o := client.Object(node); o == nil || o.Remote {
		t.Fatal("object must remain local after an unacknowledged migration")
	}
	if ret, err := th.Invoke(node, "getVal"); err != nil || ret.I != 11 {
		t.Fatalf("local invoke after partial migration = %v err=%v, want 11", ret, err)
	}
	// Nothing to reclaim: the client never held stubs for that peer.
	if n := client.ReclaimStubs(0); n != 0 {
		t.Fatalf("ReclaimStubs = %d after partial migration, want 0", n)
	}
}

// TestReclaimStubsRebuildsLocally covers the fallback half of the
// migrate path: after a sever, every stub re-materializes as a zeroed
// local object of its remembered size, heap accounting is restored, and
// export pins are dropped when the vanished peer was the only one.
func TestReclaimStubsRebuildsLocally(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)

	th := client.NewThread()
	node, err := th.New("Node", 2048)
	if err != nil {
		t.Fatal(err)
	}
	keep, err := th.New("Keep", 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "val", Int(33)); err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "next", RefOf(keep)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)
	client.SetRoot("keep", keep)
	offload(t, client, surrogate, cp, sp, "Node")
	if client.ExportCount(keep) == 0 {
		t.Fatal("precondition: keep must be exported")
	}

	// The surrogate vanishes.
	client.DetachPeer(cp.selfIdx)
	liveBefore := client.Heap().Live
	n := client.ReclaimStubs(cp.selfIdx)
	if n != 1 {
		t.Fatalf("ReclaimStubs = %d, want 1", n)
	}
	o := client.Object(node)
	if o == nil || o.Remote {
		t.Fatal("reclaimed object must be local")
	}
	if o.Size != 2048 {
		t.Fatalf("reclaimed size = %d, want the remembered 2048", o.Size)
	}
	if client.Heap().Live != liveBefore+2048 {
		t.Fatalf("live bytes = %d, want %d (reclaimed memory re-accounted)", client.Heap().Live, liveBefore+2048)
	}
	// Fields restart zeroed; the remote copy is unrecoverable.
	if ret, err := th.Invoke(node, "getVal"); err != nil || ret.I != 0 {
		t.Fatalf("reclaimed getVal = %v err=%v, want 0", ret, err)
	}
	// Sole peer: the pins it held can never be released, so they drop.
	if n := client.ExportCount(keep); n != 0 {
		t.Fatalf("ExportCount(keep) = %d after sole-peer reclaim, want 0", n)
	}
}

// TestReclaimStubsKeepsPinsWithOtherPeers: with a second peer still
// attached, reclaiming one peer's stubs must NOT zero export pins — the
// survivor may still hold stubs (a leak is acceptable, a corruption is
// not).
func TestReclaimStubsKeepsPinsWithOtherPeers(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)
	second := New(migRegistry(t), Config{Role: RoleSurrogate, HeapCapacity: 1 << 20, CPUSpeed: 1})
	secondIdx := client.AttachPeer(&loopPeer{self: client, other: second, selfIdx: 1, otherIdx: 0})

	th := client.NewThread()
	keep, err := th.New("Keep", 256)
	if err != nil {
		t.Fatal(err)
	}
	node, err := th.New("Node", 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(node, "next", RefOf(keep)); err != nil {
		t.Fatal(err)
	}
	client.SetRoot("node", node)
	client.SetRoot("keep", keep)
	offload(t, client, surrogate, cp, sp, "Node")
	if client.ExportCount(keep) == 0 {
		t.Fatal("precondition: keep must be exported")
	}

	client.DetachPeer(cp.selfIdx)
	if n := client.ReclaimStubs(cp.selfIdx); n != 1 {
		t.Fatalf("ReclaimStubs = %d, want 1", n)
	}
	if n := client.ExportCount(keep); n == 0 {
		t.Fatal("export pins must survive when another peer is still attached")
	}
	client.DetachPeer(secondIdx)
}

// TestFailedExtractionTakesNoPins: an extraction that meets a dangling
// reference fails whole — it leaves no export pin on the objects staying
// behind that the batch's earlier objects reference, nor on the batch's
// own objects, so a failed offload never keeps the client from
// collecting them — and one that succeeds afterwards pins each of them
// once.
func TestFailedExtractionTakesNoPins(t *testing.T) {
	client, _, _, _ := newLoopVMs(t)
	th := client.NewThread()
	newObj := func(class string) ObjectID {
		t.Helper()
		id, err := th.New(class, 100)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	a, k := newObj("Node"), newObj("Keep")
	b, gone := newObj("Node"), newObj("Keep")
	for _, link := range [][2]ObjectID{{a, k}, {b, a}, {b, gone}} {
		field := "next"
		if link[1] == a {
			field = "val"
		}
		if err := th.SetField(link[0], field, RefOf(link[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.FreeObject(gone); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ExtractMigration(nil, []string{"Node"}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("extract with b's dangling ref: err = %v, want ErrNoSuchObject", err)
	}
	for _, id := range []ObjectID{k, a, b} {
		if n := client.ExportCount(id); n != 0 {
			t.Fatalf("#%d holds %d pins after the failed extraction, want 0", id, n)
		}
	}

	if err := th.SetField(b, "next", Nil()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.ExtractMigration(nil, []string{"Node"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []ObjectID{k, a, b} {
		if n := client.ExportCount(id); n != 1 {
			t.Fatalf("#%d holds %d pins after a good extraction, want 1: k for the receiver's stub, a and b for their copies in flight", id, n)
		}
	}
}

// TestInFlightObjectSurvivesACollection: an object that is garbage when
// it is extracted — a recall moves every live object of its classes,
// reachable or not — is pinned until ConvertToStubs turns it into a stub,
// so a collection that runs while the batch is in flight cannot sweep it
// out from under the conversion; the stub it becomes is then collected
// as any other, and a migration called off releases the pin.
func TestInFlightObjectSurvivesACollection(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)
	th := client.NewThread()
	for range 2 {
		if _, err := th.New("Node", 100); err != nil {
			t.Fatal(err)
		}
	}
	th.ClearTemps() // both are garbage now

	mig, err := client.ExtractMigration(nil, []string{"Node"})
	if err != nil {
		t.Fatal(err)
	}
	client.Collect()
	assigned, err := surrogate.AdoptMigration(sp.selfIdx, mig.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.ConvertToStubs(cp.selfIdx, mig.IDs, assigned); err != nil {
		t.Fatalf("convert after a collection: %v", err)
	}
	client.Collect() // the unreferenced stubs die and release the surrogate's copies
	surrogate.Collect()
	if h := surrogate.Heap(); h.Objects != 0 {
		t.Fatalf("surrogate holds %d objects, want none", h.Objects)
	}

	// Called off: the pin goes, and the object is garbage again.
	id, err := th.New("Node", 100)
	if err != nil {
		t.Fatal(err)
	}
	th.ClearTemps()
	if mig, err = client.ExtractMigration(nil, []string{"Node"}); err != nil || len(mig.IDs) != 1 {
		t.Fatalf("extract %v, %v", mig.IDs, err)
	}
	client.ReleaseExport(mig.IDs...)
	client.Collect()
	if client.Object(id) != nil {
		t.Fatal("an object whose migration was called off survived a collection")
	}
}
