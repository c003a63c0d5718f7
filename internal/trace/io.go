package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"aide/internal/wire"
)

// Binary trace format, built from internal/wire's primitives (the
// encoding rules are in that package's doc):
//
//	trace := version string(App) varint(HeapCapacity)
//	         uvarint(len(Classes)) class* uvarint(len(Events)) event*
//	class := string(Name) flags
//	event := Kind flags varint(Caller) varint(Callee) varint(Obj)
//	         varint(Bytes) varint(SelfTime) varint(Free) varint(Capacity)
//
// Each flags byte packs the struct's bools, in declaration order, from
// bit 0.

// traceVersion is the format version byte leading every trace.
const traceVersion = 1

// Flag bits of a class and of an event.
const (
	classPinned = 1 << iota
	classArray
	classStateless
	classKnown = classPinned | classArray | classStateless
)

const (
	eventNative = 1 << iota
	eventStateless
	eventFreed
	eventKnown = eventNative | eventStateless | eventFreed
)

// flushAt is the encode buffer size at which Write hands bytes to w.
const flushAt = 64 << 10

func flagIf(b bool, bit byte) byte {
	if b {
		return bit
	}
	return 0
}

// Write serializes the trace to w.
func Write(w io.Writer, t *Trace) error {
	buf := make([]byte, 0, flushAt+128)
	buf = append(buf, traceVersion)
	buf = wire.AppendString(buf, t.App)
	buf = binary.AppendVarint(buf, t.HeapCapacity)
	buf = binary.AppendUvarint(buf, uint64(len(t.Classes)))
	for _, c := range t.Classes {
		buf = wire.AppendString(buf, c.Name)
		buf = append(buf, flagIf(c.Pinned, classPinned)|flagIf(c.Array, classArray)|flagIf(c.Stateless, classStateless))
	}
	buf = binary.AppendUvarint(buf, uint64(len(t.Events)))
	for i := range t.Events {
		if len(buf) >= flushAt {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("trace: encode: %w", err)
			}
			buf = buf[:0]
		}
		e := &t.Events[i]
		buf = append(buf, byte(e.Kind), flagIf(e.Native, eventNative)|flagIf(e.Stateless, eventStateless)|flagIf(e.Freed, eventFreed))
		for _, v := range [...]int64{int64(e.Caller), int64(e.Callee), int64(e.Obj), e.Bytes, int64(e.SelfTime), e.Free, e.Capacity} {
			buf = binary.AppendVarint(buf, v)
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("trace: encode: %w", err)
	}
	return nil
}

var errClassRange = errors.New("class ID out of int32 range")

// classID narrows a decoded class ID, failing the reader when it does
// not fit a ClassID.
func classID(r *wire.Reader) ClassID {
	x := r.Varint()
	if x < math.MinInt32 || x > math.MaxInt32 {
		r.Fail(errClassRange)
		return 0
	}
	return ClassID(x)
}

// Read deserializes a trace from r, reading it to EOF. It rejects an
// unknown version, unknown flag bits, a class ID outside int32,
// truncation and trailing bytes, and then runs Validate: a trace it
// returns is always valid.
func Read(src io.Reader) (*Trace, error) {
	data, err := io.ReadAll(src)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	r := wire.NewReader(data)
	if v := r.Byte(); v != traceVersion {
		r.Fail(fmt.Errorf("unsupported version %d", v))
	}
	t := &Trace{App: r.String(), HeapCapacity: r.Varint()}
	if n := r.Count(); n > 0 {
		t.Classes = make([]ClassInfo, n)
		for i := range t.Classes {
			c := &t.Classes[i]
			c.Name = r.String()
			flags := r.Byte()
			if flags&^byte(classKnown) != 0 {
				r.Fail(fmt.Errorf("class %d: unknown flag bits %#x", i, flags))
			}
			c.Pinned, c.Array, c.Stateless = flags&classPinned != 0, flags&classArray != 0, flags&classStateless != 0
		}
	}
	if n := r.Count(); n > 0 {
		t.Events = make([]Event, n)
		for i := range t.Events {
			e := &t.Events[i]
			e.Kind = EventKind(r.Byte())
			flags := r.Byte()
			if flags&^byte(eventKnown) != 0 {
				r.Fail(fmt.Errorf("event %d: unknown flag bits %#x", i, flags))
			}
			e.Native, e.Stateless, e.Freed = flags&eventNative != 0, flags&eventStateless != 0, flags&eventFreed != 0
			e.Caller, e.Callee = classID(&r), classID(&r)
			e.Obj, e.Bytes, e.SelfTime = ObjectID(r.Varint()), r.Varint(), time.Duration(r.Varint())
			e.Free, e.Capacity = r.Varint(), r.Varint()
		}
	}
	if n := r.Len(); n != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", n))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// WriteFile writes the trace to path, gzip-compressed.
func WriteFile(path string, t *Trace) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("trace: close %s: %w", path, cerr)
		}
	}()
	bw := bufio.NewWriter(f)
	zw := gzip.NewWriter(bw)
	if err := Write(zw, t); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("trace: gzip close: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// ReadFile reads a gzip-compressed trace from path. Read consumes the
// stream to EOF, which is where gzip checks its CRC and length trailer,
// so a corrupt or truncated file is refused.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("trace: gzip open %s: %w", path, err)
	}
	defer zr.Close()
	return Read(zr)
}
