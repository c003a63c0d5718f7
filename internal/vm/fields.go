package vm

import (
	"fmt"

	"aide/internal/trace"
)

// GetField reads an instance field. If the object lives on the peer VM the
// access transparently crosses the network (paper §3.2: accesses to remote
// objects are intercepted and converted into RPCs).
func (t *Thread) GetField(target ObjectID, field string) (Value, error) {
	v := t.vm
	retried, drains := false, 0
retry:
	v.mu.Lock()
	o, ok := v.objects[target]
	if !ok {
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: get #%d.%s: %w", target, field, ErrNoSuchObject)
	}
	from := v.currentClassLocked()
	to := o.Class.Name
	if o.Remote {
		peer := v.peerAt(o.PeerIdx)
		if peer == nil {
			idx := o.PeerIdx
			v.mu.Unlock()
			err := v.peerSlotErr(idx)
			if !retried && v.failoverIfGone(idx, nil, err) {
				retried = true
				goto retry
			}
			return Nil(), fmt.Errorf("vm: get %s.%s: %w", to, field, err)
		}
		peerIdx := o.PeerIdx
		peerID := o.PeerID
		v.mu.Unlock()
		val, err := peer.GetFieldRemote(peerID, field)
		if err != nil {
			if !retried && v.failoverIfGone(peerIdx, peer, err) {
				retried = true
				goto retry
			}
			if drains < maxDrainRedirects && v.drainIfRedirected(peerIdx, peer, err) {
				drains++
				goto retry
			}
			return Nil(), fmt.Errorf("vm: remote get %s.%s: %w", to, field, err)
		}
		v.mu.Lock()
		if val.Kind == KindRef {
			v.addTempLocked(val.Ref)
		}
		if v.fieldHooks != nil {
			v.fieldHooks.OnFieldAccess(to, field, val.WireSize())
		}
		v.emitLocked(trace.KindAccess, from, o.Class, target, val.WireSize(), 0, false, false)
		v.mu.Unlock()
		return val, nil
	}
	ix, fok := o.Class.FieldIndex(field)
	if !fok {
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: get %s.%s: %w", to, field, ErrNoSuchField)
	}
	val := o.Fields[ix]
	if val.Kind == KindDeferred {
		// Lazy-migration fault: the value stayed behind on the origin VM.
		// Pull every withheld field of the object in one round trip, then
		// retry the access (fetchDeferred guarantees no slot stays
		// deferred, so the retry cannot fault again).
		v.mu.Unlock()
		v.fetchDeferred(target)
		goto retry
	}
	if val.Kind == KindRef {
		v.addTempLocked(val.Ref)
	}
	if v.fieldHooks != nil {
		v.fieldHooks.OnFieldAccess(to, field, val.WireSize())
	}
	v.emitLocked(trace.KindAccess, from, o.Class, target, val.WireSize(), 0, false, false)
	v.mu.Unlock()
	return val, nil
}

// SetField writes an instance field, crossing the network when the object
// is remote.
func (t *Thread) SetField(target ObjectID, field string, val Value) error {
	v := t.vm
	retried, drains := false, 0
retry:
	v.mu.Lock()
	o, ok := v.objects[target]
	if !ok {
		v.mu.Unlock()
		return fmt.Errorf("vm: set #%d.%s: %w", target, field, ErrNoSuchObject)
	}
	from := v.currentClassLocked()
	to := o.Class.Name
	if o.Remote {
		peer := v.peerAt(o.PeerIdx)
		if peer == nil {
			idx := o.PeerIdx
			v.mu.Unlock()
			err := v.peerSlotErr(idx)
			if !retried && v.failoverIfGone(idx, nil, err) {
				retried = true
				goto retry
			}
			return fmt.Errorf("vm: set %s.%s: %w", to, field, err)
		}
		peerIdx := o.PeerIdx
		peerID := o.PeerID
		v.mu.Unlock()
		if err := peer.SetFieldRemote(peerID, field, val); err != nil {
			if !retried && v.failoverIfGone(peerIdx, peer, err) {
				retried = true
				goto retry
			}
			if drains < maxDrainRedirects && v.drainIfRedirected(peerIdx, peer, err) {
				drains++
				goto retry
			}
			return fmt.Errorf("vm: remote set %s.%s: %w", to, field, err)
		}
		v.mu.Lock()
		if v.fieldHooks != nil {
			v.fieldHooks.OnFieldAccess(to, field, val.WireSize())
		}
		v.emitLocked(trace.KindAccess, from, o.Class, target, val.WireSize(), 0, false, false)
		v.mu.Unlock()
		return nil
	}
	ix, ok := o.Class.FieldIndex(field)
	if !ok {
		v.mu.Unlock()
		return fmt.Errorf("vm: set %s.%s: %w", to, field, ErrNoSuchField)
	}
	// Writing a deferred slot overwrites the placeholder; the origin's
	// residual copy is stale from here on and loses to this value if the
	// object ever migrates home (AdoptMigration folds residuals into
	// still-deferred slots only).
	o.Fields[ix] = val
	if v.fieldHooks != nil {
		v.fieldHooks.OnFieldAccess(to, field, val.WireSize())
	}
	v.emitLocked(trace.KindAccess, from, o.Class, target, val.WireSize(), 0, false, false)
	v.mu.Unlock()
	return nil
}

// GetStatic reads static data. Static data may contain host-specific state
// (e.g. System.properties), so to ensure consistency all access is directed
// to the client VM (paper §3.2).
func (t *Thread) GetStatic(className, field string) (Value, error) {
	v := t.vm
	class := v.registry.Class(className)
	if class == nil {
		return Nil(), fmt.Errorf("vm: getstatic %s.%s: unknown class", className, field)
	}
	ix, ok := class.StaticIndex(field)
	if !ok {
		return Nil(), fmt.Errorf("vm: getstatic %s.%s: %w", className, field, ErrNoSuchField)
	}
	v.mu.Lock()
	if v.cfg.Role == RoleSurrogate {
		peer := v.peerAt(0) // a surrogate's sole peer is its client
		if peer == nil {
			v.mu.Unlock()
			return Nil(), fmt.Errorf("vm: getstatic %s.%s: %w", className, field, ErrNotAttached)
		}
		from := v.currentClassLocked()
		v.mu.Unlock()
		val, err := peer.GetStaticRemote(className, field)
		if err != nil {
			return Nil(), fmt.Errorf("vm: remote getstatic %s.%s: %w", className, field, err)
		}
		v.mu.Lock()
		if val.Kind == KindRef {
			v.addTempLocked(val.Ref)
		}
		v.emitLocked(trace.KindAccess, from, class, InvalidObject, val.WireSize(), 0, false, false)
		v.mu.Unlock()
		return val, nil
	}
	defer v.mu.Unlock()
	val := v.staticSlotsLocked(class)[ix]
	from := v.currentClassLocked()
	if val.Kind == KindRef {
		v.addTempLocked(val.Ref)
	}
	v.emitLocked(trace.KindAccess, from, class, InvalidObject, val.WireSize(), 0, false, false)
	return val, nil
}

// SetStatic writes static data on the client VM.
func (t *Thread) SetStatic(className, field string, val Value) error {
	v := t.vm
	class := v.registry.Class(className)
	if class == nil {
		return fmt.Errorf("vm: setstatic %s.%s: unknown class", className, field)
	}
	ix, ok := class.StaticIndex(field)
	if !ok {
		return fmt.Errorf("vm: setstatic %s.%s: %w", className, field, ErrNoSuchField)
	}
	v.mu.Lock()
	if v.cfg.Role == RoleSurrogate {
		peer := v.peerAt(0) // a surrogate's sole peer is its client
		if peer == nil {
			v.mu.Unlock()
			return fmt.Errorf("vm: setstatic %s.%s: %w", className, field, ErrNotAttached)
		}
		from := v.currentClassLocked()
		v.mu.Unlock()
		if err := peer.SetStaticRemote(className, field, val); err != nil {
			return fmt.Errorf("vm: remote setstatic %s.%s: %w", className, field, err)
		}
		v.mu.Lock()
		v.emitLocked(trace.KindAccess, from, class, InvalidObject, val.WireSize(), 0, false, false)
		v.mu.Unlock()
		return nil
	}
	defer v.mu.Unlock()
	v.staticSlotsLocked(class)[ix] = val
	v.emitLocked(trace.KindAccess, v.currentClassLocked(), class, InvalidObject, val.WireSize(), 0, false, false)
	return nil
}

func (v *VM) staticSlotsLocked(class *Class) []Value {
	slots, ok := v.statics[class.Name]
	if !ok {
		slots = make([]Value, len(class.StaticFields))
		v.statics[class.Name] = slots
	}
	return slots
}
