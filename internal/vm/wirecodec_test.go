package vm

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"aide/internal/wire"
)

// wireValues is one of each encodable kind, including both WireRef
// localities and the nil-canonical blob form.
func wireValues() []WireValue {
	return []WireValue{
		{Kind: KindNil},
		{Kind: KindInt, I: 0},
		{Kind: KindInt, I: -1},
		{Kind: KindInt, I: 1 << 40},
		{Kind: KindFloat, F: 3.25},
		{Kind: KindFloat, F: -0.0},
		{Kind: KindBool, B: true},
		{Kind: KindBool, B: false},
		{Kind: KindString, S: ""},
		{Kind: KindString, S: "hello, wire"},
		{Kind: KindBytes},
		{Kind: KindBytes, Bytes: []byte{0, 1, 2, 0xFF}},
		{Kind: KindRef, Ref: WireRef{ID: 7, Class: "Node"}},
		{Kind: KindRef, Ref: WireRef{ID: -3, ReceiverLocal: true}},
	}
}

func TestWireValueRoundTrip(t *testing.T) {
	for _, w := range wireValues() {
		buf := w.AppendWire(nil)
		// Trailing bytes must be left untouched for the next decoder.
		r := wire.NewReader(append(buf, 0xAA))
		var got WireValue
		got.ReadWire(&r)
		if err := r.Err(); err != nil {
			t.Errorf("%+v: decode: %v", w, err)
			continue
		}
		if r.Len() != 1 || r.Byte() != 0xAA {
			t.Errorf("%+v: decoder consumed the wrong span", w)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("round trip changed %+v -> %+v", w, got)
		}
		// Re-encoding the decoded value is byte-identical (canonical form).
		if again := got.AppendWire(nil); string(again) != string(buf) {
			t.Errorf("%+v: re-encode differs: %v vs %v", w, again, buf)
		}
	}
}

func TestWireRefRoundTrip(t *testing.T) {
	for _, r := range []WireRef{
		{ID: 1, Class: "Doc"},
		{ID: 123456, Class: ""},
		{ID: 42, ReceiverLocal: true},
		{ID: -9, ReceiverLocal: true},
	} {
		buf := r.AppendWire(nil)
		rd := wire.NewReader(buf)
		got := WireRef{ID: 5, Class: "stale"} // ReadWire overwrites, never merges
		got.ReadWire(&rd)
		if rd.Err() != nil || rd.Len() != 0 {
			t.Errorf("%+v: decode err=%v rest=%d", r, rd.Err(), rd.Len())
			continue
		}
		if got != r {
			t.Errorf("round trip changed %+v -> %+v", r, got)
		}
	}
}

// TestScanBatchSpan: ScanBatch consumes a batch's wire form exactly —
// fieldless objects and every value kind included — and reports its
// object count, leaving what follows for the next decoder.
func TestScanBatchSpan(t *testing.T) {
	batch := refAppendBatch(nil, []refMigratedObject{
		{SenderID: 17, Class: "Node", Size: 4096, Fields: wireValues()},
		{SenderID: 18, Class: "Keep", Size: 8},
	})
	r := wire.NewReader(append(batch, 0xAA))
	if n := ScanBatch(&r); n != 2 || r.Err() != nil {
		t.Fatalf("ScanBatch = %d objects, err %v; want 2", n, r.Err())
	}
	if r.Len() != 1 || r.Byte() != 0xAA {
		t.Fatal("ScanBatch consumed the wrong span")
	}
}

// readErr runs one in-place decoder over data and returns the reader's
// verdict.
func readErr(data []byte, read func(*wire.Reader)) error {
	r := wire.NewReader(data)
	read(&r)
	return r.Err()
}

// TestWireDecodeTruncation feeds every decoder every strict prefix of a
// valid encoding: all must error, none may panic or succeed.
func TestWireDecodeTruncation(t *testing.T) {
	batch := refAppendBatch(nil, []refMigratedObject{{SenderID: 300, Class: "Node", Size: 1024, Fields: wireValues()}})
	type tcase struct {
		full []byte
		read func(*wire.Reader)
	}
	cases := []tcase{
		{batch, func(r *wire.Reader) { ScanBatch(r) }},
		{(&WireRef{ID: 99, Class: "Doc"}).AppendWire(nil), new(WireRef).ReadWire},
	}
	for _, w := range wireValues() {
		cases = append(cases, tcase{w.AppendWire(nil), new(WireValue).ReadWire})
	}
	for _, tc := range cases {
		for cut := 0; cut < len(tc.full); cut++ {
			if readErr(tc.full[:cut], tc.read) == nil {
				t.Fatalf("accepted a %d-byte prefix of %x", cut, tc.full)
			}
		}
	}
}

// TestWireDecodeMalformed covers what is this format's own to reject;
// the primitive matrix (over-long varints, lengths past the end) is
// internal/wire's.
func TestWireDecodeMalformed(t *testing.T) {
	// Kind 7 once marked a field a migration withheld; nothing assigns it.
	for _, kind := range []byte{7, 0x7F} {
		if err := readErr([]byte{kind}, new(WireValue).ReadWire); err == nil || !strings.Contains(err.Error(), "unknown value kind") {
			t.Fatalf("unknown kind %d: err = %v", kind, err)
		}
	}
	// Blob length past the end of the buffer.
	if err := readErr([]byte{byte(KindBytes), 0x05, 1}, new(WireValue).ReadWire); !errors.Is(err, wire.ErrCount) {
		t.Fatalf("blob length beyond buffer: err = %v", err)
	}
	// Field count past the end of the buffer: one object, SenderID 0,
	// empty class, size 0, then a huge count with no payload.
	scan := func(r *wire.Reader) { ScanBatch(r) }
	if err := readErr([]byte{0x01, 0x00, 0x00, 0x00, 0x40}, scan); !errors.Is(err, wire.ErrCount) {
		t.Fatalf("oversized field count: err = %v", err)
	}
	// A batch field of an unknown kind.
	if err := readErr([]byte{0x01, 0x00, 0x00, 0x00, 0x01, 7}, scan); err == nil || !strings.Contains(err.Error(), "unknown value kind") {
		t.Fatalf("batch field of kind 7: err = %v", err)
	}
}
