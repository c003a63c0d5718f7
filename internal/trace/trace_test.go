package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func sampleTrace() *Trace {
	return &Trace{
		App:          "Sample",
		HeapCapacity: 1 << 20,
		Classes: []ClassInfo{
			{Name: "ui", Pinned: true},
			{Name: "doc"},
			{Name: "arr", Array: true},
			{Name: "math", Pinned: true, Stateless: true},
		},
		Events: []Event{
			{Kind: KindCreate, Callee: 1, Obj: 1, Bytes: 100},
			{Kind: KindInvoke, Caller: 0, Callee: 1, Obj: 1, Bytes: 24, SelfTime: time.Millisecond},
			{Kind: KindCreate, Callee: 2, Obj: 2, Bytes: 4096},
			{Kind: KindAccess, Caller: 1, Callee: 2, Obj: 2, Bytes: 64},
			{Kind: KindInvoke, Caller: 1, Callee: 3, Obj: NoObject, Bytes: 16, SelfTime: time.Millisecond, Native: true, Stateless: true},
			{Kind: KindDelete, Callee: 2, Obj: 2, Bytes: 4096},
			{Kind: KindGC, Free: 1 << 19, Capacity: 1 << 20, Freed: true},
		},
	}
}

func TestValidateAcceptsSample(t *testing.T) {
	if err := sampleTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

// corruptions each break one Validate rule on a sampleTrace.
var corruptions = []func(*Trace){
	func(tr *Trace) { tr.Events[1].Callee = 99 },                   // class out of range
	func(tr *Trace) { tr.Events[1].Bytes = -1 },                    // negative bytes
	func(tr *Trace) { tr.Events[0].Obj = 2; tr.Events[2].Obj = 2 }, // double create
	func(tr *Trace) { tr.Events[5].Obj = 77 },                      // delete unknown
	func(tr *Trace) { tr.Events[5].Callee = 1 },                    // delete wrong class
	func(tr *Trace) { tr.Events[6].Free = -1 },                     // negative GC
	func(tr *Trace) { tr.Events[3].Kind = EventKind(42) },          // unknown kind
	func(tr *Trace) { tr.Events[0].Bytes = -5 },                    // negative size
}

func TestValidateCatchesCorruption(t *testing.T) {
	for i, corrupt := range corruptions {
		tr := sampleTrace()
		corrupt(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("case %d: corruption not caught", i)
		}
	}
}

// TestReadRefusesInvalidTraces pins that Read only returns valid traces:
// every corruption Validate catches is written out and read back.
func TestReadRefusesInvalidTraces(t *testing.T) {
	for i, corrupt := range corruptions {
		tr := sampleTrace()
		corrupt(tr)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("case %d: Read returned an invalid trace", i)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("round trip altered the trace")
	}
}

func encodeSample(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadRejectsMalformed covers the format-level refusals: truncation
// anywhere, trailing bytes, an unknown version and a class ID that does
// not fit int32.
func TestReadRejectsMalformed(t *testing.T) {
	data := encodeSample(t)
	for n := 0; n < len(data); n++ {
		if _, err := Read(bytes.NewReader(data[:n])); err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(data))
		}
	}
	if _, err := Read(bytes.NewReader(append(data[:len(data):len(data)], 0))); err == nil {
		t.Error("trailing byte accepted")
	}
	v2 := append([]byte{2}, data[1:]...)
	if _, err := Read(bytes.NewReader(v2)); err == nil {
		t.Error("version 2 accepted")
	}
	// One class, one invoke whose caller is 2^32+1.
	wide := []byte{traceVersion, 0, 0, 1, 1, 'c', 0, 1, byte(KindInvoke), 0}
	wide = binary.AppendVarint(wide, 1<<32+1)
	wide = append(wide, 0, 0, 0, 0, 0, 0)
	if _, err := Read(bytes.NewReader(wide)); !errors.Is(err, errClassRange) {
		t.Errorf("class ID 2^32+1: err = %v, want %v", err, errClassRange)
	}
}

// TestReadFileRejectsCorruptTrailer pins that ReadFile reads the gzip
// stream to its end, where the CRC-32 and length trailer are checked: a
// file with a flipped CRC or with the trailer cut off is refused.
func TestReadFileRejectsCorruptTrailer(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.trace.gz")
	if err := WriteFile(good, sampleTrace()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), data...)
	flipped[len(flipped)-8] ^= 0xff // first byte of the CRC-32
	for name, b := range map[string][]byte{"crc flipped": flipped, "trailer cut": data[:len(data)-8]} {
		path := filepath.Join(dir, "bad.trace.gz")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("%s: ReadFile accepted the file", name)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	tr := sampleTrace()
	path := filepath.Join(t.TempDir(), "sample.trace.gz")
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("file round trip altered the trace")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file must error")
	}
}

func TestClassAccessor(t *testing.T) {
	tr := sampleTrace()
	if tr.Class(0).Name != "ui" {
		t.Fatal("Class(0) wrong")
	}
	if tr.Class(-1).Name != "" || tr.Class(99).Name != "" {
		t.Fatal("out-of-range class must be zero")
	}
}

func TestTotalSelfTime(t *testing.T) {
	if got := sampleTrace().TotalSelfTime(); got != 2*time.Millisecond {
		t.Fatalf("TotalSelfTime = %v", got)
	}
}

func TestComputeStats(t *testing.T) {
	s := ComputeStats(sampleTrace())
	if s.ClassEvents != 4 {
		t.Fatalf("ClassEvents = %d, want 4", s.ClassEvents)
	}
	if s.ObjectEvents != 3 { // 2 creates + 1 delete
		t.Fatalf("ObjectEvents = %d", s.ObjectEvents)
	}
	if s.ObjectsMax != 2 {
		t.Fatalf("ObjectsMax = %d", s.ObjectsMax)
	}
	if s.InteractionEvents != 3 || s.Invocations != 2 || s.Accesses != 1 {
		t.Fatalf("interactions = %d/%d/%d", s.InteractionEvents, s.Invocations, s.Accesses)
	}
	if s.LinksMax != 3 {
		t.Fatalf("LinksMax = %d, want 3 distinct pairs", s.LinksMax)
	}
	if s.PeakLiveBytes != 100+4096 {
		t.Fatalf("PeakLiveBytes = %d", s.PeakLiveBytes)
	}
	if s.BytesTransferred != 24+64+16 {
		t.Fatalf("BytesTransferred = %d", s.BytesTransferred)
	}
}

func TestStatsPeakNeverNegative(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{Classes: []ClassInfo{{Name: "c"}}}
		live := map[ObjectID]int64{}
		var next ObjectID
		for i := 0; i < 200; i++ {
			if len(live) > 0 && r.Intn(2) == 0 {
				for id, sz := range live {
					tr.Events = append(tr.Events, Event{Kind: KindDelete, Callee: 0, Obj: id, Bytes: sz})
					delete(live, id)
					break
				}
			} else {
				next++
				sz := int64(r.Intn(1000))
				tr.Events = append(tr.Events, Event{Kind: KindCreate, Callee: 0, Obj: next, Bytes: sz})
				live[next] = sz
			}
		}
		if err := tr.Validate(); err != nil {
			return false
		}
		s := ComputeStats(tr)
		return s.PeakLiveBytes >= 0 && s.ObjectsMax >= 0 && s.ObjectsAvg >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventKindString(t *testing.T) {
	kinds := map[EventKind]string{
		KindInvoke: "invoke", KindAccess: "access", KindCreate: "create",
		KindDelete: "delete", KindGC: "gc", EventKind(99): "EventKind(99)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
