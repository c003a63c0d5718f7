package remote

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"aide/internal/vm"
)

// codecMessages is one representative message per wire kind, every field
// the kind uses populated, plus reply and error variants. The table
// backs the round-trip and gob-equivalence tests, the fuzz corpus and
// the socket byte-count test (TestWireBytesExact).
func codecMessages() []*Message {
	return []*Message{
		{Kind: MsgInvoke, ID: 1, Obj: 42, Method: "append", Args: []vm.WireValue{
			{Kind: vm.KindInt, I: -7},
			{Kind: vm.KindString, S: "hello"},
			{Kind: vm.KindBytes, Bytes: []byte{1, 2, 3}},
			{Kind: vm.KindRef, Ref: vm.WireRef{ReceiverLocal: false, ID: 9, Class: "Doc"}},
		}},
		{Kind: MsgInvoke, ID: 1, Reply: true, Ret: vm.WireValue{Kind: vm.KindInt, I: 15}, ElapsedNanos: 120_000},
		{Kind: MsgInvoke, ID: 2, Reply: true, Err: "no such method"},
		{Kind: MsgNativeInvoke, ID: 3, Class: "UI", Method: "draw", Obj: 7, SelfIsSenderLocal: true},
		{Kind: MsgGetField, ID: 4, Obj: 42, Field: "len"},
		{Kind: MsgGetField, ID: 4, Reply: true, Ret: vm.WireValue{Kind: vm.KindFloat, F: 2.5}},
		{Kind: MsgSetField, ID: 5, Obj: 42, Field: "len", Args: []vm.WireValue{{Kind: vm.KindBool, B: true}}},
		{Kind: MsgGetStatic, ID: 6, Class: "Doc", Field: "count"},
		{Kind: MsgSetStatic, ID: 7, Class: "Doc", Field: "count", Args: []vm.WireValue{{Kind: vm.KindNil}}},
		{Kind: MsgMigrate, ID: 8, Batch: []vm.MigratedObject{
			{SenderID: 11, Class: "Doc", Size: 4096, Fields: []vm.WireValue{
				{Kind: vm.KindInt, I: 10},
				{Kind: vm.KindRef, Ref: vm.WireRef{ReceiverLocal: true, ID: 3}},
			}},
			{SenderID: 12, Class: "Doc", Size: 128},
		}},
		{Kind: MsgMigrate, ID: 8, Reply: true, IDs: []vm.ObjectID{1001, 1002}},
		{Kind: MsgRelease, ID: 9, Obj: 1001},
		{Kind: MsgReleaseBatch, ID: 10, IDs: []vm.ObjectID{1001, 1002, 1002, 1003}},
		{Kind: MsgPing, ID: 11},
		{Kind: MsgPing, ID: 11, Reply: true},
		{Kind: MsgPong, ID: 11, Reply: true},
		{Kind: MsgRecall, ID: 12, Classes: []string{"Doc", "Filter"}},
		{Kind: MsgRecall, ID: 12, Reply: true, Objects: 3, MovedBytes: 8192},
		{Kind: MsgInfo, ID: 13},
		{Kind: MsgInfo, ID: 13, Reply: true, FreeBytes: 1 << 20, CapacityBytes: 8 << 20, CPUSpeed: 3.5},
		{Kind: MsgInvokeBatch, ID: 14, Calls: []vm.PipelineCall{
			{Recv: -1, Obj: 42, Method: "head", Args: []vm.WireValue{{Kind: vm.KindInt, I: 3}}},
			{Recv: 0, Method: "next", Args: []vm.WireValue{{Kind: vm.KindNil}, {Kind: vm.KindString, S: "x"}},
				ArgPromises: []vm.PromiseArg{{Pos: 0, Call: 0}}},
			{Recv: 1, Method: "value"},
		}},
		{Kind: MsgInvokeBatch, ID: 14, Reply: true, ElapsedNanos: 42_000, Rets: []vm.WireValue{
			{Kind: vm.KindRef, Ref: vm.WireRef{ReceiverLocal: false, ID: 7, Class: "Node"}},
			{Kind: vm.KindRef, Ref: vm.WireRef{ReceiverLocal: false, ID: 8, Class: "Node"}},
			{Kind: vm.KindInt, I: 99},
		}},
		// Failed frame: ErrIndex is 1-based on the wire, Rets carry the
		// successful prefix.
		{Kind: MsgInvokeBatch, ID: 15, Reply: true, Err: "no such method", ErrIndex: 2,
			Rets: []vm.WireValue{{Kind: vm.KindInt, I: 1}}},
		{Kind: MsgFieldFetch, ID: 16, Obj: 11, Classes: []string{"text", "thumb"}},
		{Kind: MsgFieldFetch, ID: 16, Reply: true, Classes: []string{"text"}, MovedBytes: 6,
			Args: []vm.WireValue{{Kind: vm.KindString, S: "hello"}}},
		// A lazy migration ships withheld fields as KindDeferred markers.
		{Kind: MsgMigrate, ID: 17, Batch: []vm.MigratedObject{
			{SenderID: 13, Class: "Note", Size: 2048, Fields: []vm.WireValue{
				{Kind: vm.KindString, S: "title"},
				{Kind: vm.KindDeferred},
			}},
		}},
		{Kind: MsgAttach, ID: 18},
		// Admitted: the reply carries surrogate-wide occupancy.
		{Kind: MsgAttach, ID: 18, Reply: true, Sessions: 7,
			FreeBytes: 1 << 20, CapacityBytes: 1 << 22, CPUSpeed: 2.0},
		// Rejected: the typed code rides next to the error text.
		{Kind: MsgAttach, ID: 19, Reply: true, Err: "session cap reached",
			ErrCode: uint8(CodeAdmission)},
		// A restore push: the whole image in one frame; an empty reply is
		// the handler's acceptance.
		{Kind: MsgSnapshot, ID: 20, Method: "restore", Blob: []byte{0xca, 0xfe, 0xba, 0xbe}},
		{Kind: MsgSnapshot, ID: 20, Reply: true},
		// Handoff announcement: the destination address rides in Class.
		{Kind: MsgSnapshot, ID: 21, Method: "handoff", Class: "127.0.0.1:9021", Blob: []byte{1, 0}},
		// Pull request; the reply carries the image.
		{Kind: MsgSnapshot, ID: 22, Method: "pull"},
		{Kind: MsgSnapshot, ID: 22, Reply: true, Blob: []byte{9, 9, 9}},
		// Refused mid-drain: the typed drain code rides on the reply.
		{Kind: MsgSnapshot, ID: 23, Reply: true, Err: "surrogate draining",
			ErrCode: uint8(CodeDrained)},
		// Drain directive: no image crosses, Blob is the sender's drain key.
		{Kind: MsgSnapshot, ID: 24, Method: "drain", Class: "127.0.0.1:9022", Blob: []byte("fleet-key")},
	}
}

// TestMessageRoundTrip pins decode(encode(m)) == m for the
// representative table.
func TestMessageRoundTrip(t *testing.T) {
	for _, m := range codecMessages() {
		buf := appendMessage(nil, m)
		got, err := decodeMessage(buf)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s (reply=%v): round trip mismatch:\n got %+v\nwant %+v", m.Kind, m.Reply, got, m)
		}
	}
}

// TestCodecCoversEveryField walks every struct reachable from Message and
// fails, by name, on any unexported field (no codec sends it) and on any
// exported field that no sample carries through appendMessage and
// decodeMessage non-zero and intact: the field the codec forgot. The
// samples are codecMessages() plus the values it leaves zero. Message.Wire
// is exempt: it is stamped, not sent.
func TestCodecCoversEveryField(t *testing.T) {
	samples := append(codecMessages(),
		// A promise argument at a non-zero position from a non-zero call.
		&Message{Kind: MsgInvokeBatch, ID: 30, Calls: []vm.PipelineCall{
			{Recv: -1, Obj: 1, Method: "a"},
			{Recv: -1, Obj: 2, Method: "b"},
			{Recv: 0, Method: "c", Args: []vm.WireValue{{Kind: vm.KindInt, I: 1}, {Kind: vm.KindNil}},
				ArgPromises: []vm.PromiseArg{{Pos: 1, Call: 1}}},
		}},
	)
	carried := map[string]bool{}
	for i, m := range samples {
		got, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Errorf("sample %d (%s): %v", i, m.Kind, err)
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("sample %d (%s): round trip mismatch:\n got %+v\nwant %+v", i, m.Kind, got, m)
		}
		markCarried(reflect.ValueOf(m), reflect.ValueOf(got), carried)
	}
	fields := map[string]bool{}
	wireFields(reflect.TypeOf(Message{}), fields)
	for _, f := range sortedKeys(fields) {
		switch {
		case f == "remote.Message.Wire":
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

// TestBinaryMatchesGobSemantics round-trips the same messages through
// the binary codec and through gob and requires identical decoded
// structs: the codec change alters wire mechanics, not meaning.
func TestBinaryMatchesGobSemantics(t *testing.T) {
	for _, m := range codecMessages() {
		bin, err := decodeMessage(appendMessage(nil, m))
		if err != nil {
			t.Fatalf("%s: binary decode: %v", m.Kind, err)
		}
		var network bytes.Buffer
		if err := gob.NewEncoder(&network).Encode(m); err != nil {
			t.Fatalf("%s: gob encode: %v", m.Kind, err)
		}
		var viaGob Message
		if err := gob.NewDecoder(&network).Decode(&viaGob); err != nil {
			t.Fatalf("%s: gob decode: %v", m.Kind, err)
		}
		if !reflect.DeepEqual(bin, &viaGob) {
			t.Errorf("%s (reply=%v): binary and gob disagree:\n binary %+v\n gob    %+v", m.Kind, m.Reply, bin, &viaGob)
		}
	}
}

// randomWireValue produces a canonical WireValue: only the field the
// kind uses is populated, empty blobs stay nil.
func randomWireValue(rng *rand.Rand) vm.WireValue {
	kinds := []vm.ValueKind{vm.KindNil, vm.KindInt, vm.KindFloat, vm.KindBool, vm.KindString, vm.KindBytes, vm.KindRef, vm.KindDeferred}
	switch k := kinds[rng.Intn(len(kinds))]; k {
	case vm.KindInt:
		return vm.WireValue{Kind: k, I: rng.Int63() - rng.Int63()}
	case vm.KindFloat:
		return vm.WireValue{Kind: k, F: rng.NormFloat64()}
	case vm.KindBool:
		return vm.WireValue{Kind: k, B: rng.Intn(2) == 1}
	case vm.KindString:
		return vm.WireValue{Kind: k, S: randomString(rng, 1+rng.Intn(12))}
	case vm.KindBytes:
		b := make([]byte, 1+rng.Intn(32))
		rng.Read(b)
		return vm.WireValue{Kind: k, Bytes: b}
	case vm.KindRef:
		r := vm.WireRef{ReceiverLocal: rng.Intn(2) == 1, ID: vm.ObjectID(rng.Int63n(1 << 20))}
		if !r.ReceiverLocal {
			r.Class = randomString(rng, 1+rng.Intn(8))
		}
		return vm.WireValue{Kind: vm.KindRef, Ref: r}
	default:
		return vm.WireValue{Kind: vm.KindNil}
	}
}

func randomString(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	rng.Read(b)
	return string(b)
}

func randomMessage(rng *rand.Rand) *Message {
	m := &Message{
		Kind: MsgKind(1 + rng.Intn(int(MsgSnapshot))),
		ID:   rng.Uint64() >> uint(rng.Intn(64)),
	}
	if rng.Intn(2) == 1 {
		m.Reply = true
	}
	if rng.Intn(4) == 0 {
		m.Err = randomString(rng, 1+rng.Intn(20))
	}
	if rng.Intn(2) == 0 {
		m.Obj = vm.ObjectID(rng.Int63n(1 << 30))
	}
	if rng.Intn(3) == 0 {
		m.Class = randomString(rng, 1+rng.Intn(10))
	}
	if rng.Intn(3) == 0 {
		m.Method = randomString(rng, 1+rng.Intn(10))
	}
	if rng.Intn(3) == 0 {
		m.Field = randomString(rng, 1+rng.Intn(10))
	}
	m.SelfIsSenderLocal = rng.Intn(8) == 0
	if n := rng.Intn(5); n > 0 {
		m.Args = make([]vm.WireValue, n)
		for i := range m.Args {
			m.Args[i] = randomWireValue(rng)
		}
	}
	m.Ret = randomWireValue(rng)
	if rng.Intn(3) == 0 {
		m.ElapsedNanos = rng.Int63()
	}
	if n := rng.Intn(3); n > 0 {
		m.Batch = make([]vm.MigratedObject, n)
		for i := range m.Batch {
			mo := vm.MigratedObject{
				SenderID: vm.ObjectID(rng.Int63n(1 << 20)),
				Class:    randomString(rng, 1+rng.Intn(8)),
				Size:     rng.Int63n(1 << 16),
			}
			if f := rng.Intn(4); f > 0 {
				mo.Fields = make([]vm.WireValue, f)
				for j := range mo.Fields {
					mo.Fields[j] = randomWireValue(rng)
				}
			}
			m.Batch[i] = mo
		}
	}
	if n := rng.Intn(6); n > 0 {
		m.IDs = make([]vm.ObjectID, n)
		for i := range m.IDs {
			m.IDs[i] = vm.ObjectID(rng.Int63n(1 << 24))
		}
	}
	if n := rng.Intn(3); n > 0 {
		m.Classes = make([]string, n)
		for i := range m.Classes {
			m.Classes[i] = randomString(rng, 1+rng.Intn(8))
		}
	}
	if rng.Intn(4) == 0 {
		m.Objects = rng.Int63n(1 << 20)
		m.MovedBytes = rng.Int63n(1 << 30)
	}
	if rng.Intn(4) == 0 {
		m.FreeBytes = rng.Int63n(1 << 30)
		m.CapacityBytes = rng.Int63n(1 << 32)
		m.CPUSpeed = float64(rng.Intn(100)) / 10
	}
	if n := rng.Intn(3); n > 0 {
		m.Calls = make([]vm.PipelineCall, n)
		for i := range m.Calls {
			// Canonical forms only: a concrete receiver has Recv -1, a
			// promise receiver leaves Obj zero (it is not encoded).
			c := vm.PipelineCall{Method: randomString(rng, 1+rng.Intn(8))}
			if rng.Intn(2) == 0 {
				c.Recv = -1
				c.Obj = vm.ObjectID(rng.Int63n(1 << 20))
			} else {
				c.Recv = int32(rng.Intn(4))
			}
			if f := rng.Intn(3); f > 0 {
				c.Args = make([]vm.WireValue, f)
				for j := range c.Args {
					c.Args[j] = randomWireValue(rng)
				}
				if rng.Intn(2) == 0 {
					c.ArgPromises = []vm.PromiseArg{{Pos: int32(rng.Intn(f)), Call: int32(rng.Intn(4))}}
				}
			}
			m.Calls[i] = c
		}
	}
	if n := rng.Intn(3); n > 0 {
		m.Rets = make([]vm.WireValue, n)
		for i := range m.Rets {
			m.Rets[i] = randomWireValue(rng)
		}
	}
	if rng.Intn(4) == 0 {
		m.ErrIndex = int32(rng.Intn(64))
	}
	if rng.Intn(4) == 0 {
		m.ErrCode = uint8(rng.Intn(5))
	}
	if rng.Intn(4) == 0 {
		m.Sessions = rng.Int63n(1 << 16)
	}
	if n := rng.Intn(4); n > 0 {
		m.Blob = make([]byte, 1+rng.Intn(64))
		rng.Read(m.Blob)
	}
	return m
}

// TestMessageRoundTripRandom drives the frame codec with seeded random
// messages: decode(encode(m)) must equal m, both stamped with the frame's
// length, and re-encoding the decoded message — behind bytes already in
// the buffer — must reproduce the frame.
func TestMessageRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		m := randomMessage(rng)
		frame, err := AppendFrame(nil, m)
		if err != nil {
			t.Fatalf("iter %d: encode: %v (%+v)", i, err, m)
		}
		dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("iter %d: decode: %v (%+v)", i, err, m)
		}
		if dec.Wire != int64(len(frame)) {
			t.Fatalf("iter %d: a %d-byte frame decoded with Wire = %d", i, len(frame), dec.Wire)
		}
		if !reflect.DeepEqual(dec, m) {
			t.Fatalf("iter %d: round trip mismatch:\n got %+v\nwant %+v", i, dec, m)
		}
		again, err := AppendFrame([]byte("head"), dec)
		if err != nil || !bytes.Equal(again, append([]byte("head"), frame...)) {
			t.Fatalf("iter %d: re-encode differs from original encoding (%v)", i, err)
		}
	}
}

// TestDecodeMessageRejectsCorruptFrames pins the codec's strictness:
// truncation, bad versions, unknown tags, unknown value kinds, and
// absurd element counts are errors, never silent misreads.
func TestDecodeMessageRejectsCorruptFrames(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"header only":      {wireVersion},
		"bad version":      {99, byte(MsgPing), 1},
		"unknown tag":      {wireVersion, byte(MsgPing), 1, 200},
		"truncated string": {wireVersion, byte(MsgPing), 1, tagErr, 10, 'x'},
		"huge arg count":   {wireVersion, byte(MsgPing), 1, tagArgs, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge id count":    {wireVersion, byte(MsgPing), 1, tagIDs, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"bad value kind":   {wireVersion, byte(MsgPing), 1, tagRet, 99},
		"truncated float":  {wireVersion, byte(MsgPing), 1, tagCPUSpeed, 1, 2, 3},

		"huge call count":          {wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"truncated pipeline call":  {wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 1},
		"bad receiver form":        {wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 1, 99, 0},
		"truncated promise recv":   {wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 1, byte(MsgPromiseRef)},
		"truncated rets":           {wireVersion, byte(MsgInvokeBatch), 1, tagRets, 1},
		"truncated err index":      {wireVersion, byte(MsgInvokeBatch), 1, tagErrIndex},
		"truncated fetch classes":  {wireVersion, byte(MsgFieldFetch), 1, tagClasses, 1, 5, 't', 'e'},
		"negative promise arg pos": {wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 1, byte(MsgInvoke), 2, 1, 'f', 0, 1, 1, 1},

		// Snapshot hostile matrix: a truncated image, an oversize declared
		// length, and the retired chunk-number and chunk-count tags (valid
		// varints behind them) must all reject.
		"truncated snapshot image": {wireVersion, byte(MsgSnapshot), 1, tagBlob, 8, 0xca, 0xfe},
		"huge snapshot blob":       {wireVersion, byte(MsgSnapshot), 1, tagBlob, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"retired tag 25":           {wireVersion, byte(MsgSnapshot), 1, 25, 2},
		"retired tag 26":           {wireVersion, byte(MsgSnapshot), 1, tagBlob, 1, 0xca, 26, 2},
	}
	if tagBlob != 24 {
		t.Errorf("tagBlob = %d, want 24: tags 25 and 26 are retired and a new tag starts at 27", tagBlob)
	}
	for name, data := range cases {
		if _, err := decodeMessage(data); err == nil {
			t.Errorf("%s: decodeMessage accepted corrupt input", name)
		}
	}
	// A failed reader is still walked to the end of any list in progress:
	// that walk allocates nothing, so a hostile count buys no work.
	zeros := append([]byte{wireVersion, byte(MsgInvokeBatch), 1, tagCalls, 100}, make([]byte, 100)...)
	if n := testing.AllocsPerRun(10, func() { decodeMessage(zeros) }); n > 8 {
		t.Errorf("a 100-call list failing at its first call cost %.0f allocations", n)
	}
	// The decoder asks its sticky reader for the verdict once, at the end;
	// were that forgotten, a truncated frame would be accepted with zeros
	// in it. Every strict prefix is rejected or — cut on a field boundary —
	// a shorter message in canonical form.
	for _, m := range codecMessages() {
		good := appendMessage(nil, m)
		for cut := 0; cut < len(good); cut++ {
			got, err := decodeMessage(good[:cut])
			if err == nil && !bytes.Equal(appendMessage(nil, got), good[:cut]) {
				t.Errorf("%s (reply=%v): accepted a %d/%d-byte prefix as %+v", m.Kind, m.Reply, cut, len(good), got)
			}
		}
	}
}

// TestCopyMessageDoesNotAlias pins the chan-transport boundary contract:
// the copy shares no mutable memory with the original.
func TestCopyMessageDoesNotAlias(t *testing.T) {
	m := &Message{Kind: MsgInvoke, ID: 1, Method: "m", Args: []vm.WireValue{{Kind: vm.KindBytes, Bytes: []byte{1, 2, 3}}}, IDs: []vm.ObjectID{5}}
	cp, err := copyMessage(m)
	if err != nil {
		t.Fatalf("copyMessage: %v", err)
	}
	if !reflect.DeepEqual(cp, m) {
		t.Fatalf("copy differs: got %+v want %+v", cp, m)
	}
	m.Args[0].Bytes[0] = 99
	m.IDs[0] = 77
	m.Method = "other"
	if cp.Args[0].Bytes[0] != 1 || cp.IDs[0] != 5 || cp.Method != "m" {
		t.Fatal("copyMessage aliases the sender's memory")
	}
}
