package vm

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// erringPeer fails every remote operation with a fixed error. It stands
// in for a peer whose transport died mid-call.
type erringPeer struct{ err error }

func (p *erringPeer) InvokeRemote(ObjectID, string, []Value) (Value, time.Duration, error) {
	return Nil(), 0, p.err
}
func (p *erringPeer) GetFieldRemote(ObjectID, string) (Value, error) { return Nil(), p.err }
func (p *erringPeer) SetFieldRemote(ObjectID, string, Value) error   { return p.err }
func (p *erringPeer) GetStaticRemote(string, string) (Value, error)  { return Nil(), p.err }
func (p *erringPeer) SetStaticRemote(string, string, Value) error    { return p.err }
func (p *erringPeer) InvokeNativeRemote(string, string, ObjectID, bool, []Value) (Value, time.Duration, error) {
	return Nil(), 0, p.err
}
func (p *erringPeer) Release(...ObjectID) {}

// newErringRig builds a client VM whose peer 0 always fails with err,
// holding one Node stub supposedly hosted there.
func newErringRig(t *testing.T, err error) (*VM, int, ObjectID) {
	t.Helper()
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	idx := v.AttachPeer(&erringPeer{err: err})
	stub, serr := v.StubFor(idx, ObjectID(99), "Node")
	if serr != nil {
		t.Fatal(serr)
	}
	v.SetRoot("stub", stub)
	return v, idx, stub
}

// TestFailoverRetriesAfterRemoteError: when a remote call fails with
// ErrPeerGone and the failover handler re-homes the peer's objects, the
// operation retries transparently on the reclaimed local copy — for
// invoke, field read, and field write alike.
func TestFailoverRetriesAfterRemoteError(t *testing.T) {
	gone := fmt.Errorf("transport: %w", ErrPeerGone)
	ops := []struct {
		name string
		op   func(th *Thread, id ObjectID) error
	}{
		{"invoke", func(th *Thread, id ObjectID) error {
			ret, err := th.Invoke(id, "getVal")
			if err == nil && ret.I != 0 {
				return fmt.Errorf("reclaimed object returned %d, want zeroed", ret.I)
			}
			return err
		}},
		{"getfield", func(th *Thread, id ObjectID) error {
			_, err := th.GetField(id, "val")
			return err
		}},
		{"setfield", func(th *Thread, id ObjectID) error {
			return th.SetField(id, "val", Int(5))
		}},
	}
	for _, tc := range ops {
		t.Run(tc.name, func(t *testing.T) {
			v, idx, stub := newErringRig(t, gone)
			fired := 0
			v.SetFailoverHandler(func(peerIdx int, used Peer) bool {
				fired++
				if peerIdx != idx {
					t.Errorf("handler got peer %d, want %d", peerIdx, idx)
				}
				if _, ok := used.(*erringPeer); !ok {
					t.Errorf("handler was not told which peer failed: used = %T", used)
				}
				v.DetachPeer(peerIdx)
				v.ReclaimStubs(peerIdx)
				return true
			})
			th := v.NewThread()
			if err := tc.op(th, stub); err != nil {
				t.Fatalf("%s after failover: %v", tc.name, err)
			}
			if fired != 1 {
				t.Fatalf("handler fired %d times, want 1", fired)
			}
			if o := v.Object(stub); o == nil || o.Remote {
				t.Fatal("object must be local after failover")
			}
		})
	}
}

// TestFailoverRetriesAfterDetachedSlot: the same retry works when the
// slot was already nilled (disconnect raced ahead of the call) — the nil
// slot classifies as ErrPeerGone, not ErrNotAttached.
func TestFailoverRetriesAfterDetachedSlot(t *testing.T) {
	v, idx, stub := newErringRig(t, errors.New("unused"))
	v.DetachPeer(idx)
	v.SetFailoverHandler(func(peerIdx int, _ Peer) bool {
		v.ReclaimStubs(peerIdx)
		return true
	})
	th := v.NewThread()
	if ret, err := th.Invoke(stub, "getVal"); err != nil || ret.I != 0 {
		t.Fatalf("invoke via detached slot = %v err=%v", ret, err)
	}

	v2, idx2, stub2 := newErringRig(t, errors.New("unused"))
	v2.DetachPeer(idx2)
	v2.SetFailoverHandler(func(peerIdx int, _ Peer) bool {
		v2.ReclaimStubs(peerIdx)
		return true
	})
	th2 := v2.NewThread()
	if _, err := th2.GetField(stub2, "val"); err != nil {
		t.Fatalf("getfield via detached slot: %v", err)
	}

	v3, idx3, stub3 := newErringRig(t, errors.New("unused"))
	v3.DetachPeer(idx3)
	v3.SetFailoverHandler(func(peerIdx int, _ Peer) bool {
		v3.ReclaimStubs(peerIdx)
		return true
	})
	th3 := v3.NewThread()
	if err := th3.SetField(stub3, "val", Int(1)); err != nil {
		t.Fatalf("setfield via detached slot: %v", err)
	}
}

// TestFailoverDoesNotRetryWithoutCause: no handler installed, a handler
// that declines, or an error that is not ErrPeerGone — in every case the
// original error must surface, untouched by retry machinery.
func TestFailoverDoesNotRetryWithoutCause(t *testing.T) {
	t.Run("no-handler", func(t *testing.T) {
		v, idx, stub := newErringRig(t, errors.New("unused"))
		v.DetachPeer(idx)
		th := v.NewThread()
		if _, err := th.Invoke(stub, "getVal"); !errors.Is(err, ErrPeerGone) {
			t.Fatalf("err = %v, want ErrPeerGone", err)
		}
		if _, err := th.GetField(stub, "val"); !errors.Is(err, ErrPeerGone) {
			t.Fatalf("getfield err = %v, want ErrPeerGone", err)
		}
		if err := th.SetField(stub, "val", Int(1)); !errors.Is(err, ErrPeerGone) {
			t.Fatalf("setfield err = %v, want ErrPeerGone", err)
		}
	})
	t.Run("handler-declines", func(t *testing.T) {
		v, idx, stub := newErringRig(t, errors.New("unused"))
		v.DetachPeer(idx)
		v.SetFailoverHandler(func(int, Peer) bool { return false })
		th := v.NewThread()
		if _, err := th.Invoke(stub, "getVal"); !errors.Is(err, ErrPeerGone) {
			t.Fatalf("err = %v, want ErrPeerGone", err)
		}
	})
	t.Run("other-error", func(t *testing.T) {
		cause := errors.New("i/o timeout")
		v, _, stub := newErringRig(t, cause)
		v.SetFailoverHandler(func(int, Peer) bool {
			t.Error("handler must not fire for a non-gone error")
			return true
		})
		th := v.NewThread()
		if _, err := th.Invoke(stub, "getVal"); !errors.Is(err, cause) {
			t.Fatalf("invoke err = %v, want the transport error", err)
		}
		if _, err := th.GetField(stub, "val"); !errors.Is(err, cause) {
			t.Fatalf("getfield err = %v, want the transport error", err)
		}
		if err := th.SetField(stub, "val", Int(2)); !errors.Is(err, cause) {
			t.Fatalf("setfield err = %v, want the transport error", err)
		}
	})
}

// TestPeerSlotBeyondTable: a stub whose peer index was never attached
// reports ErrNotAttached — it is a wiring bug, not a disconnect, and
// must not trigger failover.
func TestPeerSlotBeyondTable(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	stub, err := v.StubFor(7, ObjectID(99), "Node")
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("stub", stub)
	v.SetFailoverHandler(func(int, Peer) bool {
		t.Error("failover must not fire for a never-attached index")
		return true
	})
	th := v.NewThread()
	if _, err := th.Invoke(stub, "getVal"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("invoke err = %v, want ErrNotAttached", err)
	}
	if _, err := th.GetField(stub, "val"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("getfield err = %v, want ErrNotAttached", err)
	}
	if err := th.SetField(stub, "val", Int(1)); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("setfield err = %v, want ErrNotAttached", err)
	}
}

// TestSurrogateStaticsRequireClient: a surrogate with no client attached
// cannot serve static access or native routing — both redirect to peer 0.
func TestSurrogateStaticsRequireClient(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleSurrogate, HeapCapacity: 1 << 20, CPUSpeed: 1})
	th := v.NewThread()
	if _, err := th.GetStatic("Node", "config"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("getstatic err = %v, want ErrNotAttached", err)
	}
	if err := th.SetStatic("Node", "config", Int(1)); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("setstatic err = %v, want ErrNotAttached", err)
	}
	if _, err := th.InvokeStatic("Sys", "host"); !errors.Is(err, ErrNotAttached) {
		t.Fatalf("native static err = %v, want ErrNotAttached", err)
	}
}

// TestSurrogateStaticErrorsPropagate: transport failures on the static
// redirection path surface to the caller.
func TestSurrogateStaticErrorsPropagate(t *testing.T) {
	cause := errors.New("link reset")
	v := New(migRegistry(t), Config{Role: RoleSurrogate, HeapCapacity: 1 << 20, CPUSpeed: 1})
	v.AttachPeer(&erringPeer{err: cause})
	th := v.NewThread()
	if _, err := th.GetStatic("Node", "config"); !errors.Is(err, cause) {
		t.Fatalf("getstatic err = %v, want the transport error", err)
	}
	if err := th.SetStatic("Node", "config", Int(1)); !errors.Is(err, cause) {
		t.Fatalf("setstatic err = %v, want the transport error", err)
	}
	if _, err := th.InvokeStatic("Sys", "host"); !errors.Is(err, cause) {
		t.Fatalf("native static err = %v, want the transport error", err)
	}
}

// TestNativeInstanceOnMigratedObjectFails pins the platform invariant
// that instance natives only exist on pinned classes: if a Gadget
// somehow migrates, invoking its native through the stub must error
// rather than loop between the VMs.
func TestNativeInstanceOnMigratedObjectFails(t *testing.T) {
	client, surrogate, cp, sp := newLoopVMs(t)
	th := client.NewThread()
	g, err := th.New("Gadget", 200)
	if err != nil {
		t.Fatal(err)
	}
	client.SetRoot("g", g)
	offload(t, client, surrogate, cp, sp, "Gadget")
	_, err = th.Invoke(g, "poke")
	if err == nil || !strings.Contains(err.Error(), "invoked on migrated object") {
		t.Fatalf("native on migrated object: err = %v", err)
	}
}

// TestInvokeStaticErrors covers the static-dispatch error branches and
// the AdvanceClock accounting hook.
func TestInvokeStaticErrors(t *testing.T) {
	v := New(migRegistry(t), Config{Role: RoleClient, HeapCapacity: 1 << 20, CPUSpeed: 1})
	th := v.NewThread()
	if _, err := th.InvokeStatic("Nope", "x"); err == nil || !strings.Contains(err.Error(), "unknown class") {
		t.Fatalf("unknown class err = %v", err)
	}
	if _, err := th.InvokeStatic("Sys", "nope"); !errors.Is(err, ErrNoSuchMethod) {
		t.Fatalf("unknown method err = %v", err)
	}
	if _, err := th.Invoke(ObjectID(424242), "getVal"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("unknown object err = %v", err)
	}

	before := v.Clock()
	v.AdvanceClock(5 * time.Millisecond)
	if v.Clock()-before != 5*time.Millisecond {
		t.Fatalf("AdvanceClock moved %v, want 5ms", v.Clock()-before)
	}
}
