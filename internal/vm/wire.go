package vm

import "fmt"

// WireRef is an object reference as it appears on the network. Each VM has
// a private reference namespace; a reference on the wire is therefore
// tagged: either it names an object in the *receiver's* namespace (the
// sender was holding a stub for the receiver's object) or it names an
// object in the *sender's* namespace, in which case the receiver maps it to
// a local stub placeholder (paper §3.2).
type WireRef struct {
	// ReceiverLocal reports that ID is in the receiver's namespace.
	ReceiverLocal bool
	ID            ObjectID

	// Class names the referent's class, set when ReceiverLocal is false so
	// the receiver can type its stub.
	Class string
}

// WireValue is a Value in network form: identical to Value except that
// references are namespace-tagged.
type WireValue struct {
	Kind  ValueKind
	I     int64
	F     float64
	B     bool
	S     string
	Bytes []byte
	Ref   WireRef
}

// EncodeOutgoing converts a local value to wire form for the peer with the
// given index. Sending a reference to a locally hosted object exports it:
// the object is pinned against collection until the peer releases it
// (distributed GC). Forwarding a reference to an object hosted by a
// *different* surrogate is rejected: surrogate-to-surrogate references are
// the paper's future work (§2, §8).
func (v *VM) EncodeOutgoing(peerIdx int, val Value) (WireValue, error) {
	var w WireValue
	err := v.EncodeOutgoingInto(peerIdx, &val, &w)
	return w, err
}

// EncodeOutgoingInto is EncodeOutgoing writing through pointers, so
// parameter-list loops fill their slice elements without copying the
// ~90-byte structs through return values (the RPC hot path). On error
// *w is the zero value.
func (v *VM) EncodeOutgoingInto(peerIdx int, val *Value, w *WireValue) error {
	*w = WireValue{Kind: val.Kind, I: val.I, F: val.F, B: val.B, S: val.S, Bytes: val.Bytes}
	if val.Kind != KindRef {
		return nil
	}
	if val.Ref == InvalidObject {
		w.Kind = KindNil
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.encodeOutgoingRefLocked(peerIdx, val, w)
}

// encodeOutgoingRefLocked converts a live KindRef value's reference into
// *w (whose scalar fields are already filled). Called with v.mu held.
func (v *VM) encodeOutgoingRefLocked(peerIdx int, val *Value, w *WireValue) error {
	o, ok := v.objects[val.Ref]
	if !ok {
		*w = WireValue{}
		return fmt.Errorf("vm: encode ref #%d: %w", val.Ref, ErrNoSuchObject)
	}
	if o.Remote {
		if o.PeerIdx != peerIdx {
			*w = WireValue{}
			return fmt.Errorf("vm: encode ref #%d: cross-surrogate references are unsupported", val.Ref)
		}
		w.Ref = WireRef{ReceiverLocal: true, ID: o.PeerID}
		return nil
	}
	o.exported++
	w.Ref = WireRef{ReceiverLocal: false, ID: o.ID, Class: o.Class.Name}
	return nil
}

// EncodeOutgoingAll converts a parameter list to wire form. References
// in the list are exported under a single lock acquisition (a pipelined
// frame's reply is mostly references).
func (v *VM) EncodeOutgoingAll(peerIdx int, vals []Value) ([]WireValue, error) {
	out := make([]WireValue, len(vals))
	locked := false
	defer func() {
		if locked {
			v.mu.Unlock()
		}
	}()
	for i := range vals {
		val := &vals[i]
		out[i] = WireValue{Kind: val.Kind, I: val.I, F: val.F, B: val.B, S: val.S, Bytes: val.Bytes}
		if val.Kind != KindRef {
			continue
		}
		if val.Ref == InvalidObject {
			out[i].Kind = KindNil
			continue
		}
		if !locked {
			v.mu.Lock()
			locked = true
		}
		if err := v.encodeOutgoingRefLocked(peerIdx, val, &out[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DecodeIncoming converts a wire value received from the peer into a local
// value, creating stub placeholders for foreign references as needed.
func (v *VM) DecodeIncoming(peerIdx int, w WireValue) (Value, error) {
	var val Value
	err := v.DecodeIncomingInto(peerIdx, &w, &val)
	return val, err
}

// DecodeIncomingInto is DecodeIncoming writing through pointers (see
// EncodeOutgoingInto). On error *val is Nil().
func (v *VM) DecodeIncomingInto(peerIdx int, w *WireValue, val *Value) error {
	*val = Value{Kind: w.Kind, I: w.I, F: w.F, B: w.B, S: w.S, Bytes: w.Bytes}
	if w.Kind != KindRef {
		return nil
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.decodeIncomingRefLocked(peerIdx, w, val)
}

// decodeIncomingRefLocked resolves a KindRef wire value's reference into
// *val (whose scalar fields are already filled). Called with v.mu held.
func (v *VM) decodeIncomingRefLocked(peerIdx int, w *WireValue, val *Value) error {
	if w.Ref.ReceiverLocal {
		if _, ok := v.objects[w.Ref.ID]; !ok {
			*val = Nil()
			return fmt.Errorf("vm: incoming ref #%d: %w", w.Ref.ID, ErrNoSuchObject)
		}
		val.Ref = w.Ref.ID
		return nil
	}
	class := v.registry.Class(w.Ref.Class)
	if class == nil {
		*val = Nil()
		return errUnknownStubClass(w.Ref.Class, w.Ref.ID)
	}
	val.Ref = v.stubForLocked(peerIdx, w.Ref.ID, class)
	return nil
}

func errUnknownStubClass(className string, peerID ObjectID) error {
	return fmt.Errorf("vm: stub for %s#%d: unknown class", className, peerID)
}

// DecodeIncomingAll converts a received parameter list.
func (v *VM) DecodeIncomingAll(peerIdx int, ws []WireValue) ([]Value, error) {
	out := make([]Value, len(ws))
	if err := v.DecodeIncomingSlice(peerIdx, ws, out); err != nil {
		return nil, err
	}
	return out, nil
}

// DecodeIncomingSlice converts a received parameter list into the
// caller-provided destination (len(out) must equal len(ws)): the batched
// frame paths carve per-call slices out of one arena instead of
// allocating one per call, and references in the list are resolved under
// a single lock acquisition rather than one per value.
func (v *VM) DecodeIncomingSlice(peerIdx int, ws []WireValue, out []Value) error {
	if len(out) != len(ws) {
		return fmt.Errorf("vm: decode incoming: %d values into %d slots", len(ws), len(out))
	}
	locked := false
	defer func() {
		if locked {
			v.mu.Unlock()
		}
	}()
	for i := range ws {
		w := &ws[i]
		out[i] = Value{Kind: w.Kind, I: w.I, F: w.F, B: w.B, S: w.S, Bytes: w.Bytes}
		if w.Kind != KindRef {
			continue
		}
		if !locked {
			v.mu.Lock()
			locked = true
		}
		if err := v.decodeIncomingRefLocked(peerIdx, w, &out[i]); err != nil {
			return err
		}
	}
	return nil
}

// StubFor returns the local stub for the peer's object, creating one if
// this VM has not seen the reference before. The two VMs thereby maintain
// object reference mappings as objects and references move between them
// (paper §3.2).
func (v *VM) StubFor(peerIdx int, peerID ObjectID, className string) (ObjectID, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	class := v.registry.Class(className)
	if class == nil {
		return InvalidObject, errUnknownStubClass(className, peerID)
	}
	return v.stubForLocked(peerIdx, peerID, class), nil
}

// ReleaseExport decrements the export pin on each local object after the
// peer collected its stub.
func (v *VM) ReleaseExport(ids ...ObjectID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, id := range ids {
		if o, ok := v.objects[id]; ok && o.exported > 0 {
			o.exported--
		}
	}
}
