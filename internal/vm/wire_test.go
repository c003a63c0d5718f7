package vm

import (
	"errors"
	"testing"
)

func wireRegistry(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	mustRegister(reg, ClassSpec{Name: "Node", Fields: []string{"next", "label"}})
	mustRegister(reg, ClassSpec{Name: "Leaf", Fields: []string{"v"}})
	return reg
}

func TestEncodeOutgoingScalars(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	for _, val := range []Value{Nil(), Int(4), Float(1.5), Bool(true), Str("x"), Blob([]byte{1})} {
		w, err := v.EncodeOutgoing(0, val)
		if err != nil {
			t.Fatalf("%v: %v", val, err)
		}
		if w.Kind != val.Kind {
			t.Fatalf("kind changed: %v -> %v", val.Kind, w.Kind)
		}
		back, err := v.DecodeIncoming(0, w)
		if err != nil {
			t.Fatal(err)
		}
		if back.Kind != val.Kind || back.I != val.I || back.S != val.S {
			t.Fatalf("round trip changed %v -> %v", val, back)
		}
	}
}

func TestEncodeOutgoingExportsLocalRef(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	th := v.NewThread()
	id, err := th.New("Leaf", 16)
	if err != nil {
		t.Fatal(err)
	}
	w, err := v.EncodeOutgoing(0, RefOf(id))
	if err != nil {
		t.Fatal(err)
	}
	if w.Ref.ReceiverLocal || w.Ref.ID != id || w.Ref.Class != "Leaf" {
		t.Fatalf("wire ref = %+v", w.Ref)
	}
	// The export pins the object against collection even with no local
	// roots.
	th.ClearTemps()
	v.Collect()
	if v.Object(id) == nil {
		t.Fatal("exported object collected")
	}
	v.ReleaseExport(id)
	v.Collect()
	if v.Object(id) != nil {
		t.Fatal("released object survived")
	}
}

func TestEncodeOutgoingNilAndDangling(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	w, err := v.EncodeOutgoing(0, RefOf(InvalidObject))
	if err != nil || w.Kind != KindNil {
		t.Fatalf("nil ref: %+v %v", w, err)
	}
	if _, err := v.EncodeOutgoing(0, RefOf(ObjectID(777))); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("dangling ref err = %v", err)
	}
}

func TestStubForDeduplicates(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	a, err := v.StubFor(0, ObjectID(5), "Leaf")
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.StubFor(0, ObjectID(5), "Leaf")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same peer ID must map to one stub")
	}
	o := v.Object(a)
	if o == nil || !o.Remote || o.PeerID != 5 || o.Class.Name != "Leaf" {
		t.Fatalf("stub = %+v", o)
	}
	if _, err := v.StubFor(0, ObjectID(6), "Nope"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

func TestDecodeIncomingCreatesStub(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	val, err := v.DecodeIncoming(0, WireValue{Kind: KindRef, Ref: WireRef{ID: 9, Class: "Leaf"}})
	if err != nil {
		t.Fatal(err)
	}
	o := v.Object(val.Ref)
	if o == nil || !o.Remote || o.PeerID != 9 {
		t.Fatalf("decoded stub = %+v", o)
	}
	// ReceiverLocal refs must resolve to existing objects.
	if _, err := v.DecodeIncoming(0, WireValue{Kind: KindRef, Ref: WireRef{ReceiverLocal: true, ID: 12345}}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("bogus receiver-local ref err = %v", err)
	}
	good, err := v.DecodeIncoming(0, WireValue{Kind: KindRef, Ref: WireRef{ReceiverLocal: true, ID: val.Ref}})
	if err != nil || good.Ref != val.Ref {
		t.Fatalf("receiver-local decode: %v %v", good, err)
	}
}

func TestMigrationRoundTripRelinksReferences(t *testing.T) {
	reg := wireRegistry(t)
	a := New(reg, Config{Role: RoleClient, HeapCapacity: 1 << 20})
	b := New(reg, Config{Role: RoleSurrogate, HeapCapacity: 1 << 20})

	// Build a 3-node list on A, plus a Leaf that stays behind.
	th := a.NewThread()
	leaf, err := th.New("Leaf", 8)
	if err != nil {
		t.Fatal(err)
	}
	var nodes []ObjectID
	var prev ObjectID
	for i := 0; i < 3; i++ {
		n, err := th.New("Node", 100)
		if err != nil {
			t.Fatal(err)
		}
		if prev != InvalidObject {
			if err := th.SetField(n, "next", RefOf(prev)); err != nil {
				t.Fatal(err)
			}
		}
		if err := th.SetField(n, "label", RefOf(leaf)); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		prev = n
	}
	a.SetRoot("head", prev)
	a.SetRoot("leaf", leaf)

	mig, err := a.ExtractMigration(nil, []string{"Node"})
	if err != nil {
		t.Fatal(err)
	}
	if len(mig.IDs) != 3 {
		t.Fatalf("batch = %d objects", len(mig.IDs))
	}
	if mig.Bytes != 300+3*16 {
		t.Fatalf("transfer bytes = %d, want the 300 B moved plus 16 a record", mig.Bytes)
	}
	assigned, err := b.AdoptMigration(0, mig.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.ConvertToStubs(0, mig.IDs, assigned); err != nil {
		t.Fatal(err)
	}

	// On B: intra-batch next references point at B-local objects; label
	// references are stubs back to A's leaf.
	for i, id := range assigned {
		o := b.Object(id)
		if o == nil || o.Remote {
			t.Fatalf("adopted object %d missing", i)
		}
		next := o.Fields[0]
		if next.Kind == KindRef && next.Ref != InvalidObject {
			no := b.Object(next.Ref)
			if no == nil || no.Remote {
				t.Fatal("intra-batch reference not re-linked locally")
			}
		}
		label := o.Fields[1]
		lo := b.Object(label.Ref)
		if lo == nil || !lo.Remote || lo.PeerID != leaf {
			t.Fatalf("leaf reference must be a stub to A: %+v", lo)
		}
	}
	// On A: nodes are stubs; heap space reclaimed.
	for _, id := range nodes {
		o := a.Object(id)
		if o == nil || !o.Remote {
			t.Fatal("sender object not converted to stub")
		}
	}
	if a.Heap().Live != 8 { // only the leaf remains
		t.Fatalf("A live = %d, want 8", a.Heap().Live)
	}
	if b.Heap().Live != 300 {
		t.Fatalf("B live = %d, want 300", b.Heap().Live)
	}
}

func TestAdoptMigrationUpgradesExistingStub(t *testing.T) {
	reg := wireRegistry(t)
	a := New(reg, Config{Role: RoleClient})
	b := New(reg, Config{Role: RoleSurrogate})

	th := a.NewThread()
	obj, err := th.New("Leaf", 64)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRoot("o", obj)

	// B already holds a stub for A's object (it received a reference
	// earlier).
	stub, err := b.StubFor(0, obj, "Leaf")
	if err != nil {
		t.Fatal(err)
	}

	mig, err := a.ExtractMigration(nil, []string{"Leaf"})
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := b.AdoptMigration(0, mig.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if assigned[0] != stub {
		t.Fatalf("stub must upgrade in place: got %d, had stub %d", assigned[0], stub)
	}
	o := b.Object(stub)
	if o.Remote || o.Size != 64 {
		t.Fatalf("upgraded stub = %+v", o)
	}
}

func TestConvertToStubsValidation(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	if err := v.ConvertToStubs(0, []ObjectID{1}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := v.ConvertToStubs(0, []ObjectID{99}, []ObjectID{1}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown object err = %v", err)
	}
	th := v.NewThread()
	id, err := th.New("Leaf", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ConvertToStubs(0, []ObjectID{id}, []ObjectID{7}); err != nil {
		t.Fatal(err)
	}
	if err := v.ConvertToStubs(0, []ObjectID{id}, []ObjectID{7}); err == nil {
		t.Fatal("double conversion accepted")
	}
}

func TestExtractMigrationUnknownClassIsEmpty(t *testing.T) {
	v := New(wireRegistry(t), Config{})
	mig, err := v.ExtractMigration(nil, []string{"Ghost"})
	if err != nil || len(mig.Batch) != 0 || len(mig.IDs) != 0 {
		t.Fatalf("batch = %+v, %v", mig, err)
	}
}
