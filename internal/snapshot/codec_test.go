package snapshot

import (
	"bytes"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"aide/internal/vm"
)

// goldenImage is a hand-crafted canonical image exercising every
// encoder path: a plain object, a stub, an exported pin, every value
// kind, roots, and statics. Canonical means it matches what
// ExportSnapshot would produce: sorted, with zero-length blobs and field
// lists as nil.
func goldenImage() *Image {
	return &Image{
		State: &vm.SnapshotState{
			NextID: 9,
			Objects: []vm.SnapshotObject{
				{ID: 1, Class: "Account", Size: 64, Exported: 2, Fields: []vm.Value{
					vm.Int(-42),
					vm.Float(2.5),
					vm.Bool(true),
					vm.Str("alice"),
					vm.Blob([]byte{0xde, 0xad}),
					vm.RefOf(3),
					vm.Nil(),
				}},
				{ID: 3, Class: "Leaf", Size: 16},
				{ID: 5, Class: "Account", Size: 0, Remote: true, PeerIdx: 1, PeerID: 7, RemoteSize: 128},
			},
			Roots: []vm.SnapshotRoot{
				{Name: "acct", ID: 1},
				{Name: "leaf", ID: 3},
			},
			Statics: []vm.SnapshotStatic{
				{Class: "Account", Values: []vm.Value{vm.Int(100), vm.Str("bank")}},
			},
		},
	}
}

const goldenFile = "testdata/image_v1.golden"

// TestImageGoldenBytes pins the version-1 encoding byte for byte
// against a committed golden file: any codec change that alters the
// bytes of an existing image is a wire break and must bump the version.
// Regenerate with AIDE_REGEN_GOLDEN=1.
func TestImageGoldenBytes(t *testing.T) {
	got := goldenImage().Encode()
	if os.Getenv("AIDE_REGEN_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d golden bytes", len(got))
		return
	}
	want, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatalf("read golden (regenerate with AIDE_REGEN_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoding drifted from golden:\n got %s\nwant %s",
			hex.EncodeToString(got), hex.EncodeToString(want))
	}
}

// TestImageCodecRoundTrip pins Decode(Encode(img)) == img and the
// byte-identity Encode(Decode(b)) == b on the golden image.
func TestImageCodecRoundTrip(t *testing.T) {
	img := goldenImage()
	buf := img.Encode()
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, img) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, img)
	}
	if again := got.Encode(); !bytes.Equal(again, buf) {
		t.Fatalf("re-encode not byte-identical:\n got %s\nwant %s",
			hex.EncodeToString(again), hex.EncodeToString(buf))
	}
}

// TestCodecCoversEveryField walks every struct reachable from Image and
// fails, by name, on any unexported field (no codec sends it) and on any
// exported field that no sample carries through Encode and Decode
// non-zero and intact: the field the codec forgot. The samples are
// goldenImage() plus the values it leaves zero.
func TestCodecCoversEveryField(t *testing.T) {
	samples := []*Image{goldenImage()}
	carried := map[string]bool{}
	for i, img := range samples {
		got, err := Decode(img.Encode())
		if err != nil {
			t.Errorf("sample %d: %v", i, err)
			continue
		}
		if !reflect.DeepEqual(got, img) {
			t.Errorf("sample %d: round trip mismatch:\n got %+v\nwant %+v", i, got.State, img.State)
		}
		markCarried(reflect.ValueOf(img), reflect.ValueOf(got), carried)
	}
	fields := map[string]bool{}
	wireFields(reflect.TypeOf(Image{}), fields)
	for _, f := range sortedKeys(fields) {
		switch {
		case !fields[f]:
			t.Errorf("%s is unexported: no codec sends it", f)
		case !carried[f]:
			t.Errorf("%s: no sample carries it through the codec non-zero", f)
		}
	}
}

// wireFields records, as "pkg.Type.Field" → exported, every field of
// every struct type reachable from t.
func wireFields(t reflect.Type, out map[string]bool) {
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		wireFields(t.Elem(), out)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			name := t.String() + "." + f.Name
			if _, seen := out[name]; !seen {
				out[name] = f.IsExported()
				wireFields(f.Type, out)
			}
		}
	}
}

// markCarried records every exported field that sent holds non-zero and
// got holds equal, walking the two values in step.
func markCarried(sent, got reflect.Value, carried map[string]bool) {
	switch sent.Kind() {
	case reflect.Pointer:
		if !sent.IsNil() && !got.IsNil() {
			markCarried(sent.Elem(), got.Elem(), carried)
		}
	case reflect.Slice:
		for i := 0; i < min(sent.Len(), got.Len()); i++ {
			markCarried(sent.Index(i), got.Index(i), carried)
		}
	case reflect.Struct:
		t := sent.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			s, g := sent.Field(i), got.Field(i)
			if !s.IsZero() && reflect.DeepEqual(s.Interface(), g.Interface()) {
				carried[t.String()+"."+t.Field(i).Name] = true
			}
			markCarried(s, g, carried)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestEmptyImage pins the degenerate encodings: a nil state encodes and
// round-trips, and an empty VM's image survives the same way.
func TestEmptyImage(t *testing.T) {
	img := &Image{State: &vm.SnapshotState{NextID: 1}}
	buf := img.Encode()
	got, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if !bytes.Equal(got.Encode(), buf) {
		t.Fatal("empty image round trip not byte-identical")
	}
}

func snapRegistry(t *testing.T) *vm.Registry {
	t.Helper()
	reg := vm.NewRegistry()
	mustReg := func(spec vm.ClassSpec) {
		t.Helper()
		if _, err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	body := func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
		th.Work(time.Microsecond)
		return vm.Nil(), nil
	}
	mustReg(vm.ClassSpec{
		Name:         "Account",
		Fields:       []string{"balance", "owner", "tags", "next", "ratio", "open", "blob", "pending"},
		StaticFields: []string{"total", "bank"},
		Methods:      []vm.MethodSpec{{Name: "touch", Body: body}},
	})
	mustReg(vm.ClassSpec{Name: "Leaf", Fields: []string{"v"}})
	return reg
}

// TestSnapshotRestoreByteIdentical builds real VM state through the
// public API, snapshots it, restores the encoded image into a fresh VM,
// and requires the re-snapshot to encode to the very same bytes — the
// subsystem's core guarantee.
func TestSnapshotRestoreByteIdentical(t *testing.T) {
	reg := snapRegistry(t)
	v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	th := v.NewThread()

	acct, err := th.New("Account", 64)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := th.New("Leaf", 16)
	if err != nil {
		t.Fatal(err)
	}
	set := func(id vm.ObjectID, field string, val vm.Value) {
		t.Helper()
		if err := th.SetField(id, field, val); err != nil {
			t.Fatal(err)
		}
	}
	set(acct, "balance", vm.Int(1234))
	set(acct, "owner", vm.Str("alice"))
	set(acct, "tags", vm.Blob([]byte{1, 2, 3}))
	set(acct, "next", vm.RefOf(leaf))
	set(acct, "ratio", vm.Float(0.75))
	set(acct, "open", vm.Bool(true))
	set(leaf, "v", vm.Int(-9))
	if err := th.SetStatic("Account", "total", vm.Int(1)); err != nil {
		t.Fatal(err)
	}
	if err := th.SetStatic("Account", "bank", vm.Str("main")); err != nil {
		t.Fatal(err)
	}
	v.SetRoot("acct", acct)
	th.ClearTemps()

	buf := Snapshot(v).Encode()

	decoded, err := Decode(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	fresh := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	if err := Restore(fresh, decoded); err != nil {
		t.Fatalf("restore: %v", err)
	}
	if got := Snapshot(fresh).Encode(); !bytes.Equal(got, buf) {
		t.Fatalf("restore→snapshot not byte-identical:\n got %s\nwant %s",
			hex.EncodeToString(got), hex.EncodeToString(buf))
	}

	// Restored state behaves: the field graph survived with exact IDs.
	fth := fresh.NewThread()
	val, err := fth.GetField(acct, "next")
	if err != nil {
		t.Fatal(err)
	}
	if val.Ref != leaf {
		t.Fatalf("restored acct.next = #%d, want #%d", val.Ref, leaf)
	}
	if got, err := fth.GetField(leaf, "v"); err != nil || got.I != -9 {
		t.Fatalf("restored leaf.v = %v, %v", got, err)
	}
}

// TestSnapshotIsCopyOnWrite pins the isolation guarantee: mutating the
// VM after Snapshot leaves the image's bytes unchanged.
func TestSnapshotIsCopyOnWrite(t *testing.T) {
	reg := snapRegistry(t)
	v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	th := v.NewThread()
	acct, err := th.New("Account", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(acct, "tags", vm.Blob([]byte{9, 9})); err != nil {
		t.Fatal(err)
	}
	v.SetRoot("a", acct)
	th.ClearTemps()

	img := Snapshot(v)
	before := img.Encode()

	if err := th.SetField(acct, "balance", vm.Int(777)); err != nil {
		t.Fatal(err)
	}
	blob, err := th.GetField(acct, "tags")
	if err != nil {
		t.Fatal(err)
	}
	blob.Bytes[0] = 0xff // mutate the live heap's blob in place
	if _, err := th.New("Leaf", 8); err != nil {
		t.Fatal(err)
	}

	if after := img.Encode(); !bytes.Equal(before, after) {
		t.Fatal("snapshot changed when the VM mutated after capture")
	}
}

// TestCloneVM pins clone independence: the clone carries the source's
// state, and divergence after the fork flows neither way.
func TestCloneVM(t *testing.T) {
	reg := snapRegistry(t)
	src := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	th := src.NewThread()
	acct, err := th.New("Account", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := th.SetField(acct, "balance", vm.Int(10)); err != nil {
		t.Fatal(err)
	}
	src.SetRoot("a", acct)
	th.ClearTemps()

	clone, err := CloneVM(src, vm.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if clone.Heap().Capacity != src.Heap().Capacity {
		t.Fatalf("clone capacity %d, src %d", clone.Heap().Capacity, src.Heap().Capacity)
	}
	cth := clone.NewThread()
	if got, err := cth.GetField(acct, "balance"); err != nil || got.I != 10 {
		t.Fatalf("clone balance = %v, %v", got, err)
	}
	if err := cth.SetField(acct, "balance", vm.Int(99)); err != nil {
		t.Fatal(err)
	}
	if got, _ := th.GetField(acct, "balance"); got.I != 10 {
		t.Fatalf("clone write leaked into source: balance = %d", got.I)
	}
	if err := th.SetField(acct, "balance", vm.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if got, _ := cth.GetField(acct, "balance"); got.I != 99 {
		t.Fatalf("source write leaked into clone: balance = %d", got.I)
	}
}

// TestRestoreRejectsBadImages pins Restore's validation: the VM must be
// left untouched on every rejected image.
func TestRestoreRejectsBadImages(t *testing.T) {
	reg := snapRegistry(t)
	cases := []struct {
		name  string
		state *vm.SnapshotState
	}{
		{"unknown class", &vm.SnapshotState{NextID: 2, Objects: []vm.SnapshotObject{
			{ID: 1, Class: "Ghost", Size: 8}}}},
		{"duplicate id", &vm.SnapshotState{NextID: 3, Objects: []vm.SnapshotObject{
			{ID: 1, Class: "Leaf", Size: 8}, {ID: 1, Class: "Leaf", Size: 8}}}},
		{"id above next", &vm.SnapshotState{NextID: 2, Objects: []vm.SnapshotObject{
			{ID: 5, Class: "Leaf", Size: 8}}}},
		{"dangling field ref", &vm.SnapshotState{NextID: 3, Objects: []vm.SnapshotObject{
			{ID: 1, Class: "Leaf", Size: 8, Fields: []vm.Value{vm.RefOf(2)}}}}},
		{"dangling root", &vm.SnapshotState{NextID: 2,
			Roots: []vm.SnapshotRoot{{Name: "r", ID: 1}}}},
		{"unknown static class", &vm.SnapshotState{NextID: 1,
			Statics: []vm.SnapshotStatic{{Class: "Ghost"}}}},
		{"dangling static ref", &vm.SnapshotState{NextID: 1,
			Statics: []vm.SnapshotStatic{{Class: "Account", Values: []vm.Value{vm.RefOf(9)}}}}},
		{"negative peer slot", &vm.SnapshotState{NextID: 2, Objects: []vm.SnapshotObject{
			{ID: 1, Class: "Leaf", Remote: true, PeerIdx: -1, PeerID: 4}}}},
		{"peer slot past the bound", &vm.SnapshotState{NextID: 2, Objects: []vm.SnapshotObject{
			{ID: 1, Class: "Leaf", Remote: true, PeerIdx: 1 << 20, PeerID: 4}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
			th := v.NewThread()
			keep, err := th.New("Leaf", 8)
			if err != nil {
				t.Fatal(err)
			}
			v.SetRoot("keep", keep)
			th.ClearTemps()
			before := Snapshot(v).Encode()
			if err := Restore(v, &Image{State: tc.state}); err == nil {
				t.Fatal("accepted")
			}
			if after := Snapshot(v).Encode(); !bytes.Equal(before, after) {
				t.Fatal("VM changed by rejected restore")
			}
		})
	}

	v := vm.New(reg, vm.Config{HeapCapacity: 1 << 20})
	if err := Restore(v, nil); err == nil {
		t.Fatal("nil image accepted")
	}
	if err := Restore(v, &Image{}); err == nil {
		t.Fatal("empty image accepted")
	}
	tiny := vm.New(reg, vm.Config{HeapCapacity: 16})
	big := &vm.SnapshotState{NextID: 2, Objects: []vm.SnapshotObject{
		{ID: 1, Class: "Leaf", Size: 1 << 20}}}
	if err := Restore(tiny, &Image{State: big}); !errors.Is(err, vm.ErrOutOfMemory) {
		t.Fatalf("oversized restore err = %v, want ErrOutOfMemory", err)
	}
}

// TestDecodeHostileInputs walks the decoder's rejection matrix: every
// named corrupt frame must produce an error, and no truncation of a valid
// image may panic or misparse.
func TestDecodeHostileInputs(t *testing.T) {
	valid := goldenImage().Encode()
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad version", []byte{0x7f}},
		{"version only", []byte{imageVersion}},
		{"oversize object count", []byte{imageVersion, 1, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"oversize root count", []byte{imageVersion, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"oversize static count", []byte{imageVersion, 1, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}},
		{"trailing bytes", append(append([]byte(nil), goldenImage().Encode()...), 0)},
		// One object, valid header, then garbage where flags belong.
		{"unknown flag bits", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 0x80}},
		{"truncated flags", []byte{imageVersion, 2, 1, 1, 1, 'A', 2}},
		{"unknown value kind", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 8, 1, 0xee}},
		{"zero field count", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 8, 0}},
		{"zero export pin", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 2, 0}},
		{"retired lazy flag bit", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 4, 0, 0}},
		{"retired value kind 7", []byte{imageVersion, 2, 1, 1, 1, 'A', 2, 8, 1, 7}},
		{"non-empty retired withheld-field section", []byte{imageVersion, 1, 0, 0, 0, 1, 0}},
		{"non-empty retired aux section", []byte{imageVersion, 1, 0, 0, 0, 0, 1, 'x'}},
	}
	for _, tc := range cases {
		if _, err := Decode(tc.data); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// Truncation can land exactly on a smaller valid image only if the
	// re-encode reproduces the input; anything else is a misparse.
	for i := 1; i < len(valid); i++ {
		if img, err := Decode(valid[:i]); err == nil && !bytes.Equal(img.Encode(), valid[:i]) {
			t.Errorf("truncated (%d bytes): accepted non-canonical input", i)
		}
	}
}
