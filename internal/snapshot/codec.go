package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"

	"aide/internal/vm"
	"aide/internal/wire"
)

// Versioned binary encoding of an Image, built from internal/wire's
// primitives (the encoding rules are in that package's doc). Field order
// inside the image is fixed by vm.ExportSnapshot's deterministic sort, so
// the same VM state always encodes to the same bytes; absent optional
// parts are flag bits, never zero-valued payloads, so every image has
// exactly one encoding.
//
// The field-coverage test in codec_test.go walks every struct reachable
// from Image and fails, by name, on a field no sample carries through a
// round trip: growing a struct without teaching the codec its new field
// is a test failure, not a silent wire corruption.

// imageVersion is the encoding version byte leading every image.
const imageVersion = 1

// Object flag bits (one flags byte per encoded object).
const (
	flagRemote   = 1 << 0
	flagExported = 1 << 1
	flagLazy     = 1 << 2
	flagFields   = 1 << 3
	flagKnown    = flagRemote | flagExported | flagLazy | flagFields
)

// Encode serializes the image. Two images of identical state encode to
// identical bytes.
func (img *Image) Encode() []byte {
	s := img.State
	if s == nil {
		s = &vm.SnapshotState{}
	}
	buf := []byte{imageVersion}
	buf = binary.AppendUvarint(buf, uint64(s.NextID))

	buf = binary.AppendUvarint(buf, uint64(len(s.Objects)))
	for i := range s.Objects {
		buf = appendObject(buf, &s.Objects[i])
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.Roots)))
	for _, r := range s.Roots {
		buf = wire.AppendString(buf, r.Name)
		buf = binary.AppendUvarint(buf, uint64(r.ID))
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.Statics)))
	for _, ss := range s.Statics {
		buf = wire.AppendString(buf, ss.Class)
		buf = binary.AppendUvarint(buf, uint64(len(ss.Values)))
		for i := range ss.Values {
			buf = appendValue(buf, &ss.Values[i])
		}
	}

	buf = binary.AppendUvarint(buf, uint64(len(s.Residual)))
	for _, sr := range s.Residual {
		buf = binary.AppendUvarint(buf, uint64(sr.ID))
		buf = binary.AppendVarint(buf, sr.Bytes)
		buf = binary.AppendUvarint(buf, uint64(len(sr.Names)))
		for i, name := range sr.Names {
			buf = wire.AppendString(buf, name)
			buf = appendValue(buf, &sr.Values[i])
		}
	}

	return wire.AppendBytes(buf, img.Aux)
}

func appendObject(buf []byte, so *vm.SnapshotObject) []byte {
	buf = binary.AppendUvarint(buf, uint64(so.ID))
	buf = wire.AppendString(buf, so.Class)
	buf = binary.AppendVarint(buf, so.Size)
	var flags byte
	if so.Remote {
		flags |= flagRemote
	}
	if so.Exported != 0 {
		flags |= flagExported
	}
	if so.LazyFrom != 0 || so.LazySrc != 0 {
		flags |= flagLazy
	}
	if len(so.Fields) > 0 {
		flags |= flagFields
	}
	buf = append(buf, flags)
	if so.Remote {
		buf = binary.AppendVarint(buf, int64(so.PeerIdx))
		buf = binary.AppendUvarint(buf, uint64(so.PeerID))
		buf = binary.AppendVarint(buf, so.RemoteSize)
	}
	if flags&flagExported != 0 {
		buf = binary.AppendVarint(buf, so.Exported)
	}
	if flags&flagLazy != 0 {
		buf = binary.AppendVarint(buf, int64(so.LazyFrom))
		buf = binary.AppendUvarint(buf, uint64(so.LazySrc))
	}
	if flags&flagFields != 0 {
		buf = binary.AppendUvarint(buf, uint64(len(so.Fields)))
		for i := range so.Fields {
			buf = appendValue(buf, &so.Fields[i])
		}
	}
	return buf
}

// appendValue encodes one heap value: a kind byte plus the kind's
// payload. References encode their snapshot-local ID — the snapshot has
// a single ID namespace, so no locality tag is needed.
func appendValue(buf []byte, val *vm.Value) []byte {
	buf = append(buf, byte(val.Kind))
	switch val.Kind {
	case vm.KindInt:
		buf = binary.AppendVarint(buf, val.I)
	case vm.KindFloat:
		buf = wire.AppendFloat(buf, val.F)
	case vm.KindBool:
		buf = wire.AppendBool(buf, val.B)
	case vm.KindString:
		buf = wire.AppendString(buf, val.S)
	case vm.KindBytes:
		buf = wire.AppendBytes(buf, val.Bytes)
	case vm.KindRef:
		buf = binary.AppendUvarint(buf, uint64(val.Ref))
	}
	return buf
}

// Format-level rejections: a flag bit may be set only when its payload
// is non-zero, so accepted input is always what Encode would produce.
var (
	errZeroExport = errors.New("non-canonical zero export pin")
	errZeroLazy   = errors.New("non-canonical zero lazy provenance")
	errNoFields   = errors.New("non-canonical empty field list")
)

// Decode parses an encoded image. It rejects unknown versions, unknown
// flag bits, unknown value kinds, truncation, declared lengths that
// exceed the remaining input, and trailing bytes — acceptance implies
// the canonical round-trip property Encode pins.
func Decode(data []byte) (*Image, error) {
	r := wire.NewReader(data)
	if v := r.Byte(); v != imageVersion {
		r.Fail(fmt.Errorf("unsupported version %d", v))
	}
	s := &vm.SnapshotState{NextID: vm.ObjectID(r.Uvarint())}
	if n := r.Count(); n > 0 {
		s.Objects = make([]vm.SnapshotObject, n)
		for i := range s.Objects {
			decodeObject(&s.Objects[i], &r)
		}
	}
	if n := r.Count(); n > 0 {
		s.Roots = make([]vm.SnapshotRoot, n)
		for i := range s.Roots {
			s.Roots[i] = vm.SnapshotRoot{Name: r.String(), ID: vm.ObjectID(r.Uvarint())}
		}
	}
	if n := r.Count(); n > 0 {
		s.Statics = make([]vm.SnapshotStatic, n)
		for i := range s.Statics {
			ss := &s.Statics[i]
			ss.Class = r.String()
			if vals := r.Count(); vals > 0 {
				ss.Values = make([]vm.Value, vals)
				for j := range ss.Values {
					decodeValue(&ss.Values[j], &r)
				}
			}
		}
	}
	if n := r.Count(); n > 0 {
		s.Residual = make([]vm.SnapshotResidual, n)
		for i := range s.Residual {
			sr := &s.Residual[i]
			sr.ID = vm.ObjectID(r.Uvarint())
			sr.Bytes = r.Varint()
			if fields := r.Count(); fields > 0 {
				sr.Names = make([]string, fields)
				sr.Values = make([]vm.Value, fields)
				for j := range sr.Names {
					sr.Names[j] = r.String()
					decodeValue(&sr.Values[j], &r)
				}
			}
		}
	}
	img := &Image{State: s, Aux: r.Bytes()}
	if n := r.Len(); n != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", n))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("snapshot: decode: %w", err)
	}
	return img, nil
}

func decodeObject(so *vm.SnapshotObject, r *wire.Reader) {
	so.ID = vm.ObjectID(r.Uvarint())
	so.Class = r.String()
	so.Size = r.Varint()
	flags := r.Byte()
	if flags&^byte(flagKnown) != 0 {
		r.Fail(fmt.Errorf("unknown flag bits %#x", flags))
		return
	}
	if flags&flagRemote != 0 {
		so.Remote = true
		so.PeerIdx = int(r.Varint())
		so.PeerID = vm.ObjectID(r.Uvarint())
		so.RemoteSize = r.Varint()
	}
	if flags&flagExported != 0 {
		if so.Exported = r.Varint(); so.Exported == 0 {
			r.Fail(errZeroExport)
		}
	}
	if flags&flagLazy != 0 {
		so.LazyFrom = int(r.Varint())
		so.LazySrc = vm.ObjectID(r.Uvarint())
		if so.LazyFrom == 0 && so.LazySrc == 0 {
			r.Fail(errZeroLazy)
		}
	}
	if flags&flagFields != 0 {
		n := r.Count()
		if n == 0 {
			r.Fail(errNoFields)
		}
		so.Fields = make([]vm.Value, n)
		for i := range so.Fields {
			decodeValue(&so.Fields[i], r)
		}
	}
}

func decodeValue(val *vm.Value, r *wire.Reader) {
	*val = vm.Value{Kind: vm.ValueKind(r.Byte())}
	switch val.Kind {
	case vm.KindNil, vm.KindDeferred:
	case vm.KindInt:
		val.I = r.Varint()
	case vm.KindFloat:
		val.F = r.Float()
	case vm.KindBool:
		val.B = r.Bool()
	case vm.KindString:
		val.S = r.String()
	case vm.KindBytes:
		val.Bytes = r.Bytes()
	case vm.KindRef:
		val.Ref = vm.ObjectID(r.Uvarint())
	default:
		r.Fail(fmt.Errorf("unknown value kind %d", val.Kind))
	}
}
