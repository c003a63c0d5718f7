package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// prim is one primitive read, returning something comparable.
type prim struct {
	name string
	read func(*Reader) any
	zero any
}

var prims = []prim{
	{"Uvarint", func(r *Reader) any { return r.Uvarint() }, uint64(0)},
	{"Varint", func(r *Reader) any { return r.Varint() }, int64(0)},
	{"Byte", func(r *Reader) any { return r.Byte() }, byte(0)},
	{"Bool", func(r *Reader) any { return r.Bool() }, false},
	{"Float", func(r *Reader) any { return r.Float() }, float64(0)},
	{"Count", func(r *Reader) any { return r.Count() }, 0},
	{"Bytes", func(r *Reader) any { return string(r.Bytes()) }, ""},
	{"View", func(r *Reader) any { return string(r.View()) }, ""},
	{"String", func(r *Reader) any { return r.String() }, ""},
}

func primNamed(name string) prim {
	for _, p := range prims {
		if p.name == name {
			return p
		}
	}
	panic("no primitive " + name)
}

// TestRoundTripAndPrefixes encodes each primitive at its boundary values,
// reads it back exactly, and requires every strict prefix — for a blob or
// string, a length running past the end — to fail with ErrTruncated or
// ErrCount, leaving nothing readable behind.
func TestRoundTripAndPrefixes(t *testing.T) {
	long := strings.Repeat("x", 200) // two-byte length prefix, past the intern cap
	type tcase struct {
		prim string
		enc  []byte
		want any
	}
	cases := []tcase{
		{"Byte", []byte{0xAB}, byte(0xAB)},
		{"Bool", AppendBool(nil, true), true},
		{"Bool", AppendBool(nil, false), false},
		{"Bool", []byte{2}, true},
		{"Float", AppendFloat(nil, -3.25), -3.25},
		{"Float", AppendFloat(nil, math.Inf(1)), math.Inf(1)},
		{"Count", []byte{0}, 0},
		{"Bytes", AppendBytes(nil, []byte{0, 1, 0xFF}), "\x00\x01\xff"},
		{"Bytes", AppendBytes(nil, []byte(long)), long},
		{"String", AppendString(nil, ""), ""},
		{"String", AppendString(nil, "method"), "method"},
		{"String", AppendString(nil, long), long},
	}
	for _, x := range []uint64{0, 1, 127, 128, 1<<14 - 1, 1 << 14, 1 << 35, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, x)
		cases = append(cases, tcase{"Uvarint", enc, x})
	}
	for _, x := range []int64{0, -1, 63, 64, -64, -65, 1 << 20, -(1 << 40), math.MaxInt64, math.MinInt64} {
		enc := binary.AppendVarint(nil, x)
		cases = append(cases, tcase{"Varint", enc, x})
	}
	for _, tc := range cases {
		p := primNamed(tc.prim)
		r := NewReader(append(tc.enc[:len(tc.enc):len(tc.enc)], 0xAA))
		if got := p.read(&r); got != tc.want || r.Err() != nil {
			t.Errorf("%s %x: got %v err %v, want %v", p.name, tc.enc, got, r.Err(), tc.want)
		}
		if r.Len() != 1 || r.Byte() != 0xAA {
			t.Errorf("%s %x: consumed the wrong span", p.name, tc.enc)
		}
		for cut := 0; cut < len(tc.enc); cut++ {
			r := NewReader(tc.enc[:cut])
			got := p.read(&r)
			err := r.Err()
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCount) {
				t.Errorf("%s %x cut at %d: err = %v", p.name, tc.enc, cut, err)
			}
			if got != p.zero || r.Len() != 0 {
				t.Errorf("%s %x cut at %d: got %v with %d bytes left after failing", p.name, tc.enc, cut, got, r.Len())
			}
		}
	}
}

func TestHostileInputs(t *testing.T) {
	over := bytes.Repeat([]byte{0x80}, 11) // 11 continuation bytes
	for _, name := range []string{"Uvarint", "Varint", "Count", "Bytes", "String"} {
		r := NewReader(over)
		if primNamed(name).read(&r); !errors.Is(r.Err(), ErrOverlong) {
			t.Errorf("%s of an 11-byte varint: err = %v", name, r.Err())
		}
	}
	// A tenth byte that overflows 64 bits.
	r := NewReader(append(bytes.Repeat([]byte{0xFF}, 9), 0x02))
	if r.Uvarint(); !errors.Is(r.Err(), ErrOverlong) {
		t.Errorf("64-bit overflow: err = %v", r.Err())
	}

	// The count guard: exactly the bytes left is the most it accepts.
	r = NewReader([]byte{3, 'a', 'b', 'c'})
	if n := r.Count(); n != 3 || r.Err() != nil {
		t.Errorf("count == remaining: got %d, err %v", n, r.Err())
	}
	r = NewReader([]byte{4, 'a', 'b', 'c'})
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Errorf("count == remaining+1: got %d, err %v", n, r.Err())
	}
	var e *Error
	if !errors.As(r.Err(), &e) || e.Off != 1 || !strings.Contains(e.Error(), "remaining bytes at byte 1") {
		t.Errorf("count failure: %v, want offset 1", r.Err())
	}
	// A count that does not fit an int is refused by the same comparison.
	r = NewReader(binary.AppendUvarint(nil, math.MaxUint64))
	if n := r.Count(); n != 0 || !errors.Is(r.Err(), ErrCount) {
		t.Errorf("huge count: got %d, err %v", n, r.Err())
	}

	// Canonical nil, and no aliasing of the input.
	in := []byte{0, 2, 'h', 'i', 2, 'y', 'o'}
	r = NewReader(in)
	empty, b, s := r.Bytes(), r.Bytes(), r.String()
	in[2], in[5] = 'X', 'X'
	if empty != nil || string(b) != "hi" || s != "yo" || r.Err() != nil {
		t.Errorf("got %v %q %q (err %v), want nil, hi, yo unaffected by the input changing", empty, b, s, r.Err())
	}

	// View is the one read that aliases: it sees the input change, and
	// its capacity stops at the blob, so an append cannot overwrite
	// what follows.
	r = NewReader(in)
	empty, b = r.View(), r.View()
	in[2] = 'h'
	if empty != nil || string(b) != "hi" || cap(b) != 2 || r.Err() != nil {
		t.Errorf("View got %v %q (cap %d, err %v), want nil and hi of capacity 2", empty, b, cap(b), r.Err())
	}
	_ = append(b, '!')
	if in[4] != 2 {
		t.Errorf("appending to a View overwrote the next byte of the input")
	}
}

// TestFailureSticks pins the contract decoders lean on: after the first
// failure every read is a zero-valued no-op that allocates nothing, and
// Err is still that first failure.
func TestFailureSticks(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Float()
	first := r.Err()
	r.Fail(errors.New("later format-level complaint"))
	allocs := testing.AllocsPerRun(100, func() {
		for _, p := range prims {
			if got := p.read(&r); got != p.zero {
				t.Errorf("%s after failure = %v", p.name, got)
			}
		}
		r.Fail(ErrCount)
	})
	if allocs != 0 {
		t.Errorf("reads after a failure allocate %.0f times", allocs)
	}
	if r.Err() != first || !errors.Is(first, ErrTruncated) || r.Len() != 0 {
		t.Errorf("Err is %v (Len %d) after later reads, was %v", r.Err(), r.Len(), first)
	}

	// Fail carries the offset it was called at.
	r = NewReader([]byte{7, 8, 9})
	r.Byte()
	r.Fail(ErrOverlong)
	if e, ok := r.Err().(*Error); !ok || e.Off != 1 || e.Err != ErrOverlong {
		t.Errorf("Fail: %v", r.Err())
	}
}

// FuzzReader runs an arbitrary sequence of reads (one op byte each) over
// arbitrary data. No read may panic, hand out more than the input held,
// or resurrect a failed reader; a successful read never consumes fewer
// bytes than the size helpers say its value needs.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		r := NewReader(data)
		var failed error
		for _, op := range ops {
			before := r.Len()
			p := prims[int(op)%len(prims)]
			got := p.read(&r)
			used := before - r.Len()
			if used < 0 || r.Len() > len(data) {
				t.Fatalf("%s: %d bytes left of %d after %d", p.name, r.Len(), len(data), before)
			}
			if failed != nil && (r.Err() != failed || got != p.zero) {
				t.Fatalf("%s after failure: got %v, err %v (was %v)", p.name, got, r.Err(), failed)
			}
			if failed = r.Err(); failed != nil {
				if r.Len() != 0 || got != p.zero {
					t.Fatalf("%s failed yet returned %v with %d bytes left", p.name, got, r.Len())
				}
				continue
			}
			need := 1
			switch v := got.(type) {
			case uint64:
				need = len(binary.AppendUvarint(nil, v))
			case int64:
				need = len(binary.AppendVarint(nil, v))
			case string:
				need = len(AppendString(nil, v))
			case float64:
				need = 8
			}
			if used < need {
				t.Fatalf("%s read %v from %d bytes, its encoding needs %d", p.name, got, used, need)
			}
		}
	})
}
