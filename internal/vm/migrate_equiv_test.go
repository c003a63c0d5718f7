package vm

import (
	"bytes"
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aide/internal/wire"
)

// CheckAgainstReference extracts classes from twin senders, one by the
// direct path and one by the frozen reference, and adopts each batch into
// one of twin receivers (at peerIdx) — the direct one from the bytes, the
// reference one from its decoded objects. The batches must be
// byte-identical; the senders, then the receivers, must end in the same
// state: the same objects and pins (ExportSnapshot) — the in-flight pin
// on each moving object aside, which the reference does not take — the
// same Heap() counters and the same import table. It returns the moved objects' IDs
// and the IDs the receivers assigned them. Exported for the package's
// external tests.
func CheckAgainstReference(t testing.TB, senders, receivers [2]*VM, peerIdx int, classes []string) (ids, assigned []ObjectID) {
	t.Helper()
	mig, err := senders[0].ExtractMigration(nil, classes)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	ref, err := refExtractMigration(senders[1], classes)
	if err != nil {
		t.Fatalf("reference extract: %v", err)
	}
	want := refAppendBatch(nil, ref)
	if len(ref) == 0 {
		want = nil
	}
	if !bytes.Equal(mig.Batch, want) {
		t.Fatalf("batch of %d objects: %d bytes, the reference wrote %d (first difference at byte %d)",
			len(ref), len(mig.Batch), len(want), firstDiff(mig.Batch, want))
	}
	var moved int64
	for i := range ref {
		if mig.IDs[i] != ref[i].SenderID {
			t.Fatalf("IDs[%d] = %d, the reference moved %d", i, mig.IDs[i], ref[i].SenderID)
		}
		moved += ref[i].Size + 16
	}
	if len(mig.IDs) != len(ref) || mig.Bytes != moved {
		t.Fatalf("extracted %d IDs and %d B to charge, want %d and %d", len(mig.IDs), mig.Bytes, len(ref), moved)
	}
	// Beyond the reference, the direct path pins each moving object while
	// its copy is in flight; every object has one pin more.
	for _, id := range mig.IDs {
		if n, m := senders[0].ExportCount(id), senders[1].ExportCount(id); n != m+1 {
			t.Fatalf("moving #%d holds %d pins, the reference's %d", id, n, m)
		}
		senders[1].objects[id].exported++
	}
	sameState(t, "sender", senders)

	var decoded []refMigratedObject
	if len(want) > 0 {
		r := wire.NewReader(want)
		if decoded = refReadBatch(&r); r.Err() != nil || r.Len() != 0 {
			t.Fatalf("reference decode: %v, %d bytes left", r.Err(), r.Len())
		}
	}
	got, err := receivers[0].AdoptMigration(peerIdx, bytes.Clone(mig.Batch))
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	wantIDs, err := refAdoptMigration(receivers[1], peerIdx, decoded)
	if err != nil {
		t.Fatalf("reference adopt: %v", err)
	}
	if len(ref) == 0 {
		wantIDs = nil
	}
	if !slices.Equal(got, wantIDs) {
		t.Fatalf("adopt assigned %v, the reference %v", got, wantIDs)
	}
	sameState(t, "receiver", receivers)
	return mig.IDs, got
}

// sameState fails unless two VMs hold the same objects, pins, roots and
// statics, the same heap counters and the same import table.
func sameState(t testing.TB, what string, vms [2]*VM) {
	t.Helper()
	if a, b := vms[0].ExportSnapshot(), vms[1].ExportSnapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("%s snapshots differ from the reference's:\n%s", what, snapshotDiff(a, b))
	}
	if a, b := vms[0].Heap(), vms[1].Heap(); a != b {
		t.Fatalf("%s heap %+v, the reference's %+v", what, a, b)
	}
	if !importsEqual(vms[0].imports, vms[1].imports) {
		t.Fatalf("%s import table %v, the reference's %v", what, vms[0].imports, vms[1].imports)
	}
}

func importsEqual(a, b importTable) bool {
	for i := 0; i < max(len(a), len(b)); i++ {
		var ma, mb map[ObjectID]ObjectID
		if i < len(a) {
			ma = a[i]
		}
		if i < len(b) {
			mb = b[i]
		}
		if !maps.Equal(ma, mb) {
			return false
		}
	}
	return true
}

// snapshotDiff names the first object two snapshots disagree on.
func snapshotDiff(a, b *SnapshotState) string {
	if a.NextID != b.NextID || len(a.Objects) != len(b.Objects) {
		return fmt.Sprintf("next ID %d vs %d, %d vs %d objects", a.NextID, b.NextID, len(a.Objects), len(b.Objects))
	}
	for i := range a.Objects {
		if !reflect.DeepEqual(a.Objects[i], b.Objects[i]) {
			return fmt.Sprintf("%+v\nvs\n%+v", a.Objects[i], b.Objects[i])
		}
	}
	return "roots or statics"
}

func firstDiff(a, b []byte) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// equivRegistry declares the classes of the random heaps: fieldless, one-,
// two- and four-field classes.
func equivRegistry(t testing.TB) *Registry {
	t.Helper()
	reg := NewRegistry()
	for _, spec := range []ClassSpec{
		{Name: "Empty"},
		{Name: "Cell", Fields: []string{"v"}},
		{Name: "Pair", Fields: []string{"l", "r"}},
		{Name: "Record", Fields: []string{"a", "b", "c", "d"}},
		{Name: "Chunk", Fields: []string{"data"}},
	} {
		if _, err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// randomTwins builds the sender and receiver of a seeded random heap: the
// receiver hosts objects the sender holds stubs for, and already holds
// stubs for some of the sender's objects, moving and staying; every field
// the sender fills is drawn from every value kind, and its references
// from nil, the sender's own objects (moving or not) and its stubs of the
// receiver's objects. The receiver knows the sender as peer 0 and the
// sender the receiver as peer 0. Calling it twice with one seed builds
// identical twins.
func randomTwins(t testing.TB, reg *Registry, seed int64) (sender, receiver *VM) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sender = New(reg, Config{Role: RoleClient, HeapCapacity: 1 << 40})
	receiver = New(reg, Config{Role: RoleSurrogate, HeapCapacity: 1 << 40})
	classes := reg.Names()
	newObjs := func(v *VM, n int) []ObjectID {
		th := v.NewThread()
		ids := make([]ObjectID, n)
		for i := range ids {
			id, err := th.New(classes[rng.Intn(len(classes))], rng.Int63n(1<<12))
			if err != nil {
				t.Fatal(err)
			}
			v.SetRoot(fmt.Sprint("o", id), id)
			ids[i] = id
		}
		th.ClearTemps()
		return ids
	}
	hosted := newObjs(receiver, 1+rng.Intn(20))
	local := newObjs(sender, 1+rng.Intn(200))
	refs := append([]ObjectID(nil), local...)
	for _, id := range hosted {
		if rng.Intn(2) == 0 {
			stub, err := sender.StubFor(0, id, receiver.Object(id).Class.Name)
			if err != nil {
				t.Fatal(err)
			}
			sender.SetRoot(fmt.Sprint("s", stub), stub)
			refs = append(refs, stub)
		}
	}
	for _, id := range local {
		if rng.Intn(4) == 0 {
			if _, err := receiver.StubFor(0, id, sender.Object(id).Class.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	th := sender.NewThread()
	for _, id := range local {
		class := sender.Object(id).Class
		for _, f := range class.Fields {
			var val Value
			switch rng.Intn(9) {
			case 0:
				continue // left unset: KindNil
			case 1:
				val = Int(rng.Int63() - rng.Int63())
			case 2:
				val = Float(rng.NormFloat64())
			case 3:
				val = Bool(rng.Intn(2) == 0)
			case 4:
				val = Str(randomText(rng))
			case 5:
				val = Value{Kind: KindBytes, Bytes: randomBlob(rng)}
			case 6:
				val = RefOf(InvalidObject)
			default:
				val = RefOf(refs[rng.Intn(len(refs))])
			}
			if err := th.SetField(id, f, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	th.ClearTemps()
	return sender, receiver
}

// randomText is empty, short (interned on decode) or past the intern cap.
func randomText(rng *rand.Rand) string {
	b := make([]byte, []int{0, 1 + rng.Intn(16), 33 + rng.Intn(64)}[rng.Intn(3)])
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// randomBlob is nil, empty or random bytes.
func randomBlob(rng *rand.Rand) []byte {
	switch rng.Intn(3) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	b := make([]byte, 1+rng.Intn(300))
	rng.Read(b)
	return b
}

// TestRandomHeapsMatchReference runs the direct migrate path against the
// reference over seeded random heaps and a random choice of moving
// classes, then moves what stayed behind as well, so the second batch
// references the stubs the first one left.
func TestRandomHeapsMatchReference(t *testing.T) {
	reg := equivRegistry(t)
	classes := reg.Names()
	for seed := int64(1); seed <= 200; seed++ {
		var senders, receivers [2]*VM
		for i := range senders {
			senders[i], receivers[i] = randomTwins(t, reg, seed)
		}
		rng := rand.New(rand.NewSource(-seed))
		var first, rest []string
		for _, c := range classes {
			if rng.Intn(2) == 0 {
				first = append(first, c)
			} else {
				rest = append(rest, c)
			}
		}
		ids, assigned := CheckAgainstReference(t, senders, receivers, 0, first)
		for _, v := range senders {
			if err := v.ConvertToStubs(0, ids, assigned); err != nil {
				t.Fatalf("seed %d: convert: %v", seed, err)
			}
		}
		CheckAgainstReference(t, senders, receivers, 0, rest)
	}
}

// TestChunkBatchMatchesReference is the bulk shape: 256 objects of one
// 4 KiB blob each, out and back.
func TestChunkBatchMatchesReference(t *testing.T) {
	reg := equivRegistry(t)
	build := func() (*VM, *VM) {
		rng := rand.New(rand.NewSource(4096))
		sender := New(reg, Config{Role: RoleClient, HeapCapacity: 1 << 30})
		th := sender.NewThread()
		for i := 0; i < 256; i++ {
			id, err := th.New("Chunk", 4<<10)
			if err != nil {
				t.Fatal(err)
			}
			blob := make([]byte, 4<<10)
			rng.Read(blob)
			if err := th.SetField(id, "data", Value{Kind: KindBytes, Bytes: blob}); err != nil {
				t.Fatal(err)
			}
			sender.SetRoot(fmt.Sprint(i), id)
		}
		return sender, New(reg, Config{Role: RoleSurrogate, HeapCapacity: 1 << 30})
	}
	var senders, receivers [2]*VM
	for i := range senders {
		senders[i], receivers[i] = build()
	}
	if ids, _ := CheckAgainstReference(t, senders, receivers, 0, []string{"Chunk"}); len(ids) != 256 {
		t.Fatalf("moved %d chunks, want 256", len(ids))
	}
}

// fuzzReceiver builds the receiver FuzzAdoptMigration adopts into: a few
// objects of its own, and stubs for the sender's objects 2 and 5.
func fuzzReceiver(t testing.TB, reg *Registry) *VM {
	v := New(reg, Config{Role: RoleSurrogate, HeapCapacity: 1 << 30})
	th := v.NewThread()
	for i, class := range []string{"Cell", "Pair", "Record"} {
		id, err := th.New(class, 64)
		if err != nil {
			t.Fatal(err)
		}
		v.SetRoot(fmt.Sprint(i), id)
	}
	for _, stub := range []struct {
		id    ObjectID
		class string
	}{{2, "Cell"}, {5, "Record"}} {
		if _, err := v.StubFor(0, stub.id, stub.class); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// FuzzAdoptMigration feeds AdoptMigration arbitrary batch bytes. It must
// never panic; it must accept exactly what the reference accepts — a
// batch the reference decoder reads whole and the reference adoption
// takes — and then leave the receiver as the reference does; and a batch
// it rejects must leave the heap, the objects and the import table as
// they were.
//
// The seed corpus in testdata/fuzz/FuzzAdoptMigration holds batches of
// the random heaps and their corruptions; `go test -run=FuzzAdoptMigration`
// replays it, `go test -fuzz=FuzzAdoptMigration` explores from it.
func FuzzAdoptMigration(f *testing.F) {
	reg := equivRegistry(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return // no batch: the codec never hands one over
		}
		got, ref := fuzzReceiver(t, reg), fuzzReceiver(t, reg)
		before, heap := fmt.Sprintf("%+v", got.ExportSnapshot()), got.Heap()
		imports := slices.Clone(got.imports)
		for i := range imports {
			imports[i] = maps.Clone(imports[i])
		}
		ids, err := got.AdoptMigration(0, bytes.Clone(data))

		r := wire.NewReader(data)
		decoded := refReadBatch(&r)
		refOK := r.Err() == nil && r.Len() == 0
		var want []ObjectID
		if refOK {
			var refErr error
			want, refErr = refAdoptMigration(ref, 0, decoded)
			refOK = refErr == nil
		}
		if err != nil {
			if refOK {
				t.Fatalf("rejected a batch the reference adopts: %v", err)
			}
			if after := fmt.Sprintf("%+v", got.ExportSnapshot()); after != before || got.Heap() != heap || !importsEqual(got.imports, imports) {
				t.Fatalf("a rejected batch (%v) changed the receiver", err)
			}
			return
		}
		if !refOK {
			t.Fatal("adopted a batch the reference rejects")
		}
		if !slices.Equal(ids, want) {
			t.Fatalf("assigned %v, the reference %v", ids, want)
		}
		if a, b := fmt.Sprintf("%+v", got.ExportSnapshot()), fmt.Sprintf("%+v", ref.ExportSnapshot()); a != b || got.Heap() != ref.Heap() || !importsEqual(got.imports, ref.imports) {
			t.Fatalf("adopted into a different receiver than the reference:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestSortByIDMatchesSlicesSort: extraction's radix sort orders any IDs
// as a comparison sort does — one pass or eight, negative IDs and a span
// past 63 bits included.
func TestSortByIDMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, span := range []int64{1, 200, 1 << 20, 1 << 40, -1} {
		for n := 1; n <= 300; n += 37 {
			a := make([]idObject, n)
			for i := range a {
				id := rng.Int63()
				if span > 0 {
					id %= span
				} else if rng.Intn(2) == 0 {
					id = -id - 1
				}
				a[i] = idObject{id: ObjectID(id)}
			}
			want := slices.Clone(a)
			slices.SortFunc(want, func(x, y idObject) int { return cmp.Compare(x.id, y.id) })
			got := sortByID(a, make([]idObject, n))
			for i := range got {
				if got[i].id != want[i].id {
					t.Fatalf("span %d, %d IDs: position %d holds %d, want %d", span, n, i, got[i].id, want[i].id)
				}
			}
		}
	}
}

// TestBatchIndexFindsEverySender: adoption's bucket index finds exactly
// the batch's sender IDs, crowded buckets, negative IDs and a span past
// 63 bits included.
func TestBatchIndexFindsEverySender(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, span := range []int64{1 << 9, 1 << 30, -1} {
		for n := 1; n <= 300; n += 23 {
			set := map[ObjectID]bool{}
			var ids []ObjectID
			for len(ids) < n {
				id := rng.Int63()
				if span > 0 {
					id %= span
				} else if rng.Intn(2) == 0 {
					id = -id - 1
				}
				if !set[ObjectID(id)] {
					set[ObjectID(id)] = true
					ids = append(ids, ObjectID(id))
				}
			}
			slices.Sort(ids)
			recs := make([]adoptee, n)
			for i, id := range ids {
				recs[i].id = id
			}
			x := newBatchIndex(recs)
			for i, id := range ids {
				for _, probe := range []ObjectID{id, id - 1, id + 1} {
					j, in := x.find(probe)
					if in != set[probe] || in && ids[j] != probe {
						t.Fatalf("span %d, %d IDs: find(%d) = %d, %v", span, n, probe, j, in)
					}
				}
				if j, _ := x.find(id); j != i {
					t.Fatalf("span %d, %d IDs: find(%d) = %d, want %d", span, n, id, j, i)
				}
			}
		}
	}
}
