package vm

import (
	"fmt"
	"time"

	"aide/internal/trace"
)

// frame is one entry of the logical application thread's call stack. The
// platform's serial-execution assumption (paper §4) means at most one
// application frame stack is active per VM; RPC service threads execute on
// behalf of the peer but never concurrently with local application code.
type frame struct {
	class  *Class
	method string

	// self accumulates Work() time exclusive of nested calls, at client
	// CPU speed (paper Figure 9).
	self time.Duration

	// temps are JNI-style local references: objects created or received in
	// this frame are GC roots until the frame exits.
	temps []ObjectID

	// thread is the execution context handed to this frame's method body.
	// Embedding it in the (pooled) frame makes it allocation-free; reuse
	// is safe because a Thread holds only the VM pointer, which is the
	// same for every frame of the pool's VM.
	thread Thread
}

// getFrameLocked returns a recycled (or fresh) frame initialized for one
// method invocation. Called with v.mu held.
func (v *VM) getFrameLocked(class *Class, method string) *frame {
	if n := len(v.framePool); n > 0 {
		f := v.framePool[n-1]
		v.framePool = v.framePool[:n-1]
		f.class, f.method, f.self = class, method, 0
		f.temps = f.temps[:0]
		return f
	}
	f := &frame{class: class, method: method}
	f.thread.vm = v
	return f
}

// putFrameLocked recycles a popped frame. Called with v.mu held; the
// frame must no longer be on v.frames.
func (v *VM) putFrameLocked(f *frame) {
	if len(v.framePool) < 64 {
		v.framePool = append(v.framePool, f)
	}
}

// Thread is the execution context handed to method bodies. It is a
// lightweight view over the VM; create one per logical entry point with
// NewThread.
type Thread struct {
	vm *VM
}

// NewThread returns an execution context for the VM.
func (v *VM) NewThread() *Thread { return &Thread{vm: v} }

// VM returns the underlying VM.
func (t *Thread) VM() *VM { return t.vm }

// currentClassLocked is the class of the running frame, nil at top level.
func (v *VM) currentClassLocked() *Class {
	if len(v.frames) == 0 {
		return nil
	}
	return v.frames[len(v.frames)-1].class
}

func (v *VM) addTempLocked(id ObjectID) {
	if len(v.frames) == 0 {
		v.rootTemps = append(v.rootTemps, id)
		return
	}
	f := v.frames[len(v.frames)-1]
	f.temps = append(f.temps, id)
}

// ClearTemps releases the GC protection of objects created at top level
// (outside any method frame). Driver code calls this once the objects it
// wants to keep are reachable from named roots or object fields.
func (t *Thread) ClearTemps() {
	v := t.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rootTemps = v.rootTemps[:0]
}

// Work simulates d of pure computation at client speed: the clock advances
// by d scaled by the VM's CPU speed, and d accrues to the current method's
// self time.
func (t *Thread) Work(d time.Duration) {
	if d <= 0 {
		return
	}
	v := t.vm
	v.mu.Lock()
	defer v.mu.Unlock()
	v.clock += time.Duration(float64(d) / v.cfg.CPUSpeed)
	if len(v.frames) > 0 {
		v.frames[len(v.frames)-1].self += d
	}
}

// New allocates an object of the named class occupying size bytes. New
// objects are always created on the VM that performs the creation
// operation (paper §4).
func (t *Thread) New(className string, size int64) (ObjectID, error) {
	v := t.vm
	class := v.registry.Class(className)
	if class == nil {
		return InvalidObject, fmt.Errorf("vm: new %s: unknown class", className)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	o, err := v.allocLocked(class, size)
	if err != nil {
		return InvalidObject, fmt.Errorf("vm: new %s: %w", className, err)
	}
	return o.ID, nil
}

// Free explicitly discards an object (it becomes garbage for the next
// collection cycle).
func (t *Thread) Free(id ObjectID) error { return t.vm.FreeObject(id) }

// Invoke calls method on the target object. If the object lives on the
// peer VM, the invocation transparently crosses the network: the thread is
// not migrated; the invocation follows the placement of the object (paper
// §3.2).
func (t *Thread) Invoke(target ObjectID, method string, args ...Value) (Value, error) {
	v := t.vm
	retried, drains := false, 0
	for {
		v.mu.Lock()
		o, ok := v.objects[target]
		if !ok {
			v.mu.Unlock()
			return Nil(), fmt.Errorf("vm: invoke %s on #%d: %w", method, target, ErrNoSuchObject)
		}
		if !o.Remote {
			return v.invokeLocalLocked(o, method, args)
		}
		peerIdx := o.PeerIdx
		used := v.peerAt(peerIdx)
		ret, err := v.invokeRemoteLocked(o, method, args)
		if err != nil && !retried && v.failoverIfGone(peerIdx, used, err) {
			// The handler re-homed the peer's objects locally; the retry
			// re-reads the object and executes on the reclaimed copy.
			retried = true
			continue
		}
		if err != nil && drains < maxDrainRedirects && v.drainIfRedirected(peerIdx, used, err) {
			// The hosting surrogate is draining and the handler re-pointed
			// the peer slot at the handoff destination; the rejected call
			// never executed, so the retry is exactly-once safe. Several
			// redirects may chain when handoffs ping-pong under the call.
			drains++
			continue
		}
		return ret, err
	}
}

// invokeRemoteLocked forwards an invocation to the peer VM, releasing the
// VM lock while waiting so the peer can call back in. Called with the lock
// held; returns with it released.
func (v *VM) invokeRemoteLocked(o *Object, method string, args []Value) (Value, error) {
	v.tm.invokeRemote.Inc()
	peer := v.peerAt(o.PeerIdx)
	if peer == nil {
		idx := o.PeerIdx
		callee := o.Class.Name
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: invoke %s.%s: %w", callee, method, v.peerSlotErr(idx))
	}
	caller := v.currentClassLocked()
	argBytes := WireSizeAll(args)
	peerID := o.PeerID
	callee := o.Class
	v.mu.Unlock()

	ret, elapsed, err := peer.InvokeRemote(peerID, method, args)
	if err != nil {
		return Nil(), fmt.Errorf("vm: remote invoke %s.%s: %w", callee.Name, method, err)
	}

	v.mu.Lock()
	v.clock += elapsed
	if ret.Kind == KindRef {
		v.addTempLocked(ret.Ref)
	}
	v.emitLocked(trace.KindInvoke, caller, callee, o.ID, argBytes+ret.WireSize(), 0, false, false)
	v.mu.Unlock()
	return ret, nil
}

// invokeLocalLocked executes a method body on this VM. Called with the
// lock held; returns with it released.
func (v *VM) invokeLocalLocked(o *Object, method string, args []Value) (Value, error) {
	v.tm.invokeLocal.Inc()
	m := o.Class.Method(method)
	if m == nil {
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: %s.%s: %w", o.Class.Name, method, ErrNoSuchMethod)
	}
	// Native methods are implemented with native code and cannot migrate;
	// instance natives only exist on pinned classes, whose objects never
	// leave the client, so reaching here with a native method on the
	// surrogate means the stateless enhancement is required to proceed.
	if m.Native && v.cfg.Role == RoleSurrogate && !(m.Stateless && v.statelessLocal) {
		return v.routeNativeToClientLocked(o.Class, method, o.ID, args)
	}
	return v.runBodyLocked(o.Class, m, o.ID, args)
}

// runBodyLocked pushes a frame, runs the body (without the lock), pops the
// frame, and reports monitoring. Called with the lock held; returns with it
// released.
func (v *VM) runBodyLocked(class *Class, m *Method, self ObjectID, args []Value) (Value, error) {
	caller := v.currentClassLocked()
	argBytes := WireSizeAll(args)
	f := v.getFrameLocked(class, m.Name)
	if self != InvalidObject {
		f.temps = append(f.temps, self)
	}
	for i := range args {
		if args[i].Kind == KindRef {
			f.temps = append(f.temps, args[i].Ref)
		}
	}
	v.frames = append(v.frames, f)
	v.mu.Unlock()

	ret, err := m.Body(&f.thread, self, args)

	v.mu.Lock()
	v.frames = v.frames[:len(v.frames)-1]
	if err != nil {
		v.putFrameLocked(f)
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: %s.%s: %w", class.Name, m.Name, err)
	}
	if ret.Kind == KindRef {
		v.addTempLocked(ret.Ref)
	}
	v.emitLocked(trace.KindInvoke, caller, class, self, argBytes+ret.WireSize(), f.self, m.Native, m.Stateless)
	v.putFrameLocked(f)
	v.mu.Unlock()
	return ret, nil
}

// routeNativeToClientLocked directs a native invocation back to the client
// VM (paper §3.2: "native invocations are directed back to the client").
// Called with the lock held; returns with it released.
func (v *VM) routeNativeToClientLocked(class *Class, method string, self ObjectID, args []Value) (Value, error) {
	className := class.Name
	peer := v.peerAt(0) // natives are directed back to the client
	if peer == nil {
		v.mu.Unlock()
		return Nil(), fmt.Errorf("vm: native %s.%s on surrogate: %w", className, method, ErrNotAttached)
	}
	caller := v.currentClassLocked()
	argBytes := WireSizeAll(args)
	peerSelf := ObjectID(0)
	selfIsCallerLocal := false
	if self != InvalidObject {
		if o, ok := v.objects[self]; ok && o.Remote {
			peerSelf = o.PeerID
		} else {
			peerSelf = self
			selfIsCallerLocal = true
		}
	}
	v.mu.Unlock()

	ret, elapsed, err := peer.InvokeNativeRemote(className, method, peerSelf, selfIsCallerLocal, args)
	if err != nil {
		return Nil(), fmt.Errorf("vm: native %s.%s via client: %w", className, method, err)
	}
	v.mu.Lock()
	v.clock += elapsed
	if ret.Kind == KindRef {
		v.addTempLocked(ret.Ref)
	}
	v.emitLocked(trace.KindInvoke, caller, class, self, argBytes+ret.WireSize(), 0, true, false)
	v.mu.Unlock()
	return ret, nil
}

// InvokeStatic calls a static (class) method. Static methods written in
// Java may execute locally on either VM; native statics on the surrogate
// are directed back to the client unless stateless and the §5.2
// enhancement is on (paper §4, §5.2).
func (t *Thread) InvokeStatic(className, method string, args ...Value) (Value, error) {
	v := t.vm
	class := v.registry.Class(className)
	if class == nil {
		return Nil(), fmt.Errorf("vm: static %s.%s: unknown class", className, method)
	}
	m := class.Method(method)
	if m == nil {
		return Nil(), fmt.Errorf("vm: static %s.%s: %w", className, method, ErrNoSuchMethod)
	}
	v.mu.Lock()
	if m.Native && v.cfg.Role == RoleSurrogate && !(m.Stateless && v.statelessLocal) {
		return v.routeNativeToClientLocked(class, method, InvalidObject, args)
	}
	return v.runBodyLocked(class, m, InvalidObject, args)
}
