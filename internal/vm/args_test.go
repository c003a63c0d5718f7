package vm

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// argsRegistry declares the methods the borrowed-argument tests and the
// allocation pin call: Box's methods read their arguments, Caller's make
// nested calls into Box, and Box.twice is static.
func argsRegistry(t testing.TB) *Registry {
	t.Helper()
	sum := func(args []Value) Value {
		var n int64
		for i := range args {
			n += args[i].I
		}
		return Int(n)
	}
	reg := NewRegistry()
	for _, spec := range []ClassSpec{
		{Name: "Box", Fields: []string{"n", "kept"}, Methods: []MethodSpec{
			{Name: "nop", Body: func(*Thread, ObjectID, []Value) (Value, error) { return Nil(), nil }},
			{Name: "sum", Body: func(_ *Thread, _ ObjectID, args []Value) (Value, error) { return sum(args), nil }},
			{Name: "echo", Body: func(_ *Thread, _ ObjectID, args []Value) (Value, error) { return args[0], nil }},
			// scribble writes over the arguments it borrowed.
			{Name: "scribble", Body: func(_ *Thread, _ ObjectID, args []Value) (Value, error) {
				for i := range args {
					args[i] = Int(-1)
				}
				return Nil(), nil
			}},
			{Name: "keep", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				return Nil(), th.SetField(self, "kept", args[0])
			}},
			// depth recurses args[0] levels and sums every level's args[1],
			// checking on the way out that each level still reads the
			// arguments it was given.
			{Name: "depth", Body: func(th *Thread, self ObjectID, args []Value) (Value, error) {
				n := args[0].I
				if n == 0 {
					return Int(0), nil
				}
				r, err := th.Invoke(self, "depth", Int(n-1), Int(10*(n-1)))
				if err != nil {
					return Nil(), err
				}
				if args[0].I != n {
					return Nil(), fmt.Errorf("level %d reads args[0] = %d after its nested call", n, args[0].I)
				}
				return Int(r.I + args[1].I), nil
			}},
			{Name: "twice", Static: true, Body: func(_ *Thread, _ ObjectID, args []Value) (Value, error) {
				return Int(2 * args[0].I), nil
			}},
		}},
		{Name: "Caller", Methods: []MethodSpec{
			// call hands Box.sum the rest of its own arguments.
			{Name: "call", Body: func(th *Thread, _ ObjectID, args []Value) (Value, error) {
				return th.Invoke(args[0].Ref, "sum", args[1:]...)
			}},
			// outer makes two nested calls, one with different arguments
			// and one that scribbles on the slice it was handed, and then
			// sums its own arguments.
			{Name: "outer", Body: func(th *Thread, _ ObjectID, args []Value) (Value, error) {
				if _, err := th.Invoke(args[0].Ref, "sum", Int(100), Int(200), Int(300), Int(400)); err != nil {
					return Nil(), err
				}
				if _, err := th.Invoke(args[0].Ref, "scribble", args...); err != nil {
					return Nil(), err
				}
				return sum(args[1:]), nil
			}},
		}},
	} {
		if _, err := reg.Register(spec); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

// newArgsVM returns a client VM over argsRegistry with one Box and one
// Caller, both named roots.
func newArgsVM(t testing.TB) (*VM, *Thread, ObjectID, ObjectID) {
	t.Helper()
	v := New(argsRegistry(t), Config{Role: RoleClient})
	th := v.NewThread()
	box, err := th.New("Box", 64)
	if err != nil {
		t.Fatal(err)
	}
	caller, err := th.New("Caller", 64)
	if err != nil {
		t.Fatal(err)
	}
	v.SetRoot("box", box)
	v.SetRoot("caller", caller)
	th.ClearTemps()
	return v, th, box, caller
}

func TestNestedCallLeavesOuterArgs(t *testing.T) {
	_, th, box, caller := newArgsVM(t)
	ret, err := th.Invoke(caller, "outer", RefOf(box), Int(1), Int(2))
	if err != nil {
		t.Fatal(err)
	}
	if ret.I != 3 {
		t.Fatalf("outer summed %d after its nested calls, want 3", ret.I)
	}
}

func TestRecursionDeeperThanFramePool(t *testing.T) {
	v, th, box, _ := newArgsVM(t)
	const depth = 100 // the frame pool keeps 64
	ret, err := th.Invoke(box, "depth", Int(depth), Int(10*depth))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(10 * depth * (depth + 1) / 2); ret.I != want {
		t.Fatalf("depth %d returned %d, want %d", depth, ret.I, want)
	}
	if n := len(v.framePool); n != 64 {
		t.Fatalf("frame pool holds %d frames after the recursion, want 64", n)
	}
}

func TestCallerRewritesArgsAfterInvoke(t *testing.T) {
	_, th, box, _ := newArgsVM(t)
	args := []Value{Str("kept"), Int(7)}
	ret, err := th.Invoke(box, "echo", args...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(box, "keep", args...); err != nil {
		t.Fatal(err)
	}
	args[0], args[1] = Str("rewritten"), Int(0)
	if ret.S != "kept" {
		t.Errorf("echo result reads %v after the caller rewrote its slice", ret)
	}
	if kept, err := th.GetField(box, "kept"); err != nil || kept.S != "kept" {
		t.Errorf("kept field reads %v, %v after the caller rewrote its slice", kept, err)
	}
}

func TestEchoReturnsBlobIntact(t *testing.T) {
	_, th, box, _ := newArgsVM(t)
	blob := make([]byte, 64<<10)
	for i := range blob {
		blob[i] = byte(i * 7)
	}
	want := bytes.Clone(blob)
	ret, err := th.Invoke(box, "echo", Blob(blob))
	if err != nil {
		t.Fatal(err)
	}
	if ret.Kind != KindBytes || !bytes.Equal(ret.Bytes, want) {
		t.Fatalf("echo returned %v, not the %d-byte blob it was given", ret, len(want))
	}
}

func TestPooledFramesHoldNoArgs(t *testing.T) {
	v, th, box, caller := newArgsVM(t)
	blob := make([]byte, 64<<10)
	if _, err := th.Invoke(box, "echo", Blob(blob), Str("s"), Int(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(caller, "outer", RefOf(box), Int(1), Int(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.Invoke(box, "depth", Int(80), Int(800)); err != nil {
		t.Fatal(err)
	}
	if _, err := th.InvokeStatic("Box", "twice", Blob(blob)); err != nil {
		t.Fatal(err)
	}
	if len(v.framePool) == 0 {
		t.Fatal("no pooled frames to inspect")
	}
	for i, f := range v.framePool {
		for j, a := range f.args[:cap(f.args)] {
			if !reflect.ValueOf(a).IsZero() {
				t.Fatalf("pooled frame %d keeps argument %d: %v", i, j, a)
			}
		}
	}
}
