//go:build !race

package vm

import "testing"

// TestWarmLocalCallAllocatesNothing: once its frames are pooled, a local
// call copies its arguments into the frame and its result back to the
// caller without a heap allocation, whatever its argument count, and so
// do field accesses and a call a body makes into another class. The race
// detector's instrumentation allocates, so the file is built without it.
func TestWarmLocalCallAllocatesNothing(t *testing.T) {
	_, th, box, caller := newArgsVM(t)
	paths := map[string]func(){
		"Invoke, 0 args": func() {
			if _, err := th.Invoke(box, "nop"); err != nil {
				t.Fatal(err)
			}
		},
		"Invoke, 1 arg": func() {
			if _, err := th.Invoke(box, "echo", Str("s")); err != nil {
				t.Fatal(err)
			}
		},
		"Invoke, 3 args": func() {
			if _, err := th.Invoke(box, "sum", Int(1), Int(2), Int(3)); err != nil {
				t.Fatal(err)
			}
		},
		"InvokeStatic": func() {
			if _, err := th.InvokeStatic("Box", "twice", Int(4)); err != nil {
				t.Fatal(err)
			}
		},
		"GetField": func() {
			if _, err := th.GetField(box, "n"); err != nil {
				t.Fatal(err)
			}
		},
		"SetField": func() {
			if err := th.SetField(box, "n", Int(5)); err != nil {
				t.Fatal(err)
			}
		},
		"nested cross-class call": func() {
			if _, err := th.Invoke(caller, "call", RefOf(box), Int(1), Int(2)); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, f := range paths {
		f() // first call pools the frames
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s: %v allocations per warm call, want 0", name, n)
		}
	}
}
