package vm

import (
	"fmt"
	"testing"
	"time"
)

// loopPeer is an in-package Peer implementation that couples two VMs
// directly through their Serve* endpoints, with full wire translation
// (EncodeOutgoing/DecodeIncoming) on both hops. It lets the VM tests
// exercise the whole remote-execution surface — migration, transparent
// invocation, field and static redirection, native routing, distributed
// GC — without importing the remote module (which would be an import
// cycle for this package's tests of its own coverage).
type loopPeer struct {
	self  *VM // the VM this peer is attached to
	other *VM // the VM on the far end

	selfIdx  int // this peer's index in self's peer table
	otherIdx int // the reverse peer's index in other's peer table
}

// wireLoopPair attaches a loopPeer to each VM and cross-links them.
func wireLoopPair(client, surrogate *VM) (*loopPeer, *loopPeer) {
	cp := &loopPeer{self: client, other: surrogate}
	sp := &loopPeer{self: surrogate, other: client}
	cp.selfIdx = client.AttachPeer(cp)
	sp.selfIdx = surrogate.AttachPeer(sp)
	cp.otherIdx = sp.selfIdx
	sp.otherIdx = cp.selfIdx
	return cp, sp
}

// ship moves an argument list across the link: encode in the sender's
// namespace, decode in the receiver's.
func (p *loopPeer) ship(args []Value) ([]Value, error) {
	ws, err := p.self.EncodeOutgoingAll(p.selfIdx, args)
	if err != nil {
		return nil, err
	}
	return p.other.DecodeIncomingAll(p.otherIdx, ws)
}

// shipBack moves a result value from the far end back to this side.
func (p *loopPeer) shipBack(ret Value) (Value, error) {
	w, err := p.other.EncodeOutgoing(p.otherIdx, ret)
	if err != nil {
		return Nil(), err
	}
	return p.self.DecodeIncoming(p.selfIdx, w)
}

func (p *loopPeer) InvokeRemote(peerObj ObjectID, method string, args []Value) (Value, time.Duration, error) {
	rargs, err := p.ship(args)
	if err != nil {
		return Nil(), 0, err
	}
	ret, elapsed, err := p.other.ServeInvoke(peerObj, method, rargs)
	if err != nil {
		return Nil(), 0, err
	}
	out, err := p.shipBack(ret)
	if err != nil {
		return Nil(), 0, err
	}
	return out, elapsed, nil
}

func (p *loopPeer) GetFieldRemote(peerObj ObjectID, field string) (Value, error) {
	ret, err := p.other.ServeGetField(peerObj, field)
	if err != nil {
		return Nil(), err
	}
	return p.shipBack(ret)
}

func (p *loopPeer) SetFieldRemote(peerObj ObjectID, field string, v Value) error {
	vals, err := p.ship([]Value{v})
	if err != nil {
		return err
	}
	return p.other.ServeSetField(peerObj, field, vals[0])
}

func (p *loopPeer) GetStaticRemote(class, field string) (Value, error) {
	ret, err := p.other.ServeGetStatic(class, field)
	if err != nil {
		return Nil(), err
	}
	return p.shipBack(ret)
}

func (p *loopPeer) SetStaticRemote(class, field string, v Value) error {
	vals, err := p.ship([]Value{v})
	if err != nil {
		return err
	}
	return p.other.ServeSetStatic(class, field, vals[0])
}

func (p *loopPeer) InvokeNativeRemote(class, method string, peerSelf ObjectID, selfIsCallerLocal bool, args []Value) (Value, time.Duration, error) {
	if selfIsCallerLocal {
		// Mirror the remote module's contract: instance natives exist only
		// on pinned classes, whose objects never migrate.
		return Nil(), 0, fmt.Errorf("loop: native %s.%s invoked on migrated object %d", class, method, peerSelf)
	}
	rargs, err := p.ship(args)
	if err != nil {
		return Nil(), 0, err
	}
	ret, elapsed, err := p.other.ServeNative(class, method, peerSelf, rargs)
	if err != nil {
		return Nil(), 0, err
	}
	out, err := p.shipBack(ret)
	if err != nil {
		return Nil(), 0, err
	}
	return out, elapsed, nil
}

func (p *loopPeer) Release(peerObjs ...ObjectID) {
	p.other.ReleaseExport(peerObjs...)
}

// migRegistry builds the classes the migration tests use: a linked Node
// with statics and helper methods, a stay-behind Keep class, and native
// methods (stateful and stateless) on Sys/Gadget.
func migRegistry(t testing.TB) *Registry {
	t.Helper()
	reg := NewRegistry()
	register := func(spec ClassSpec) {
		t.Helper()
		if _, err := reg.Register(spec); err != nil {
			t.Fatalf("register %s: %v", spec.Name, err)
		}
	}
	register(ClassSpec{
		Name:         "Node",
		Fields:       []string{"val", "next"},
		StaticFields: []string{"config"},
		Methods: []MethodSpec{
			{Name: "getVal", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return th.GetField(self, "val")
			}},
			{Name: "setVal", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Nil(), th.SetField(self, "val", args[0])
			}},
			{Name: "sum", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				cur, err := th.GetField(self, "val")
				if err != nil {
					return Nil(), err
				}
				next, err := th.GetField(self, "next")
				if err != nil {
					return Nil(), err
				}
				if next.Kind == KindRef && next.Ref != InvalidObject {
					sub, err := th.Invoke(next.Ref, "sum")
					if err != nil {
						return Nil(), err
					}
					return Int(cur.I + sub.I), nil
				}
				return cur, nil
			}},
			{Name: "readCfg", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return th.GetStatic("Node", "config")
			}},
			{Name: "writeCfg", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Nil(), th.SetStatic("Node", "config", args[0])
			}},
			{Name: "hostname", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return th.InvokeStatic("Sys", "host")
			}},
			{Name: "abs", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return th.InvokeStatic("Sys", "abs", args[0])
			}},
			{Name: "work", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				th.Work(time.Millisecond)
				return Nil(), nil
			}},
		},
	})
	register(ClassSpec{
		Name:   "Keep",
		Fields: []string{"val"},
		Methods: []MethodSpec{
			{Name: "sum", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return th.GetField(self, "val")
			}},
		},
	})
	register(ClassSpec{
		Name: "Sys",
		Methods: []MethodSpec{
			{Name: "host", Native: true, Static: true, Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Str("client"), nil
			}},
			{Name: "abs", Native: true, Stateless: true, Static: true, Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				if args[0].I < 0 {
					return Int(-args[0].I), nil
				}
				return args[0], nil
			}},
		},
	})
	register(ClassSpec{
		Name:   "Gadget",
		Fields: []string{"state"},
		Methods: []MethodSpec{
			{Name: "poke", Native: true, Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Str("poked"), nil
			}},
		},
	})
	return reg
}

// newLoopVMs builds a wired client/surrogate pair over migRegistry.
func newLoopVMs(t testing.TB) (client, surrogate *VM, cp, sp *loopPeer) {
	t.Helper()
	reg := migRegistry(t)
	client = New(reg, Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	surrogate = New(reg, Config{Role: RoleSurrogate, HeapCapacity: 8 << 20, CPUSpeed: 1})
	cp, sp = wireLoopPair(client, surrogate)
	return client, surrogate, cp, sp
}

// offload migrates every live local object of the named classes from the
// client to the surrogate and returns sender IDs and assigned IDs.
func offload(t testing.TB, client, surrogate *VM, cp, sp *loopPeer, classes ...string) (ids, assigned []ObjectID) {
	t.Helper()
	mig, err := client.ExtractMigration(nil, classes)
	if err != nil {
		t.Fatalf("extract: %v", err)
	}
	assigned, err = surrogate.AdoptMigration(sp.selfIdx, mig.Batch)
	if err != nil {
		t.Fatalf("adopt: %v", err)
	}
	if err := client.ConvertToStubs(cp.selfIdx, mig.IDs, assigned); err != nil {
		t.Fatalf("convert: %v", err)
	}
	return mig.IDs, assigned
}
