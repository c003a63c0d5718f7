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

// TestMigrationAllocationsDoNotGrowWithTheBatch: extracting a batch into
// a reused buffer and adopting it allocate the same number of times for 64
// objects as for 1,024, and at most 4 times each — each slice is sized
// once for the whole batch, and no object's fields are a heap allocation
// of their own. The adopting VM holds a stub
// for every incoming object (a recall's shape), because each fresh object
// inserted grows the heap's map, a cost of the map and not of the batch.
func TestMigrationAllocationsDoNotGrowWithTheBatch(t *testing.T) {
	counts := func(n int) (extract, adopt float64) {
		client, _, _, _ := newLoopVMs(t)
		th := client.NewThread()
		prev := InvalidObject
		for i := 0; i < n; i++ {
			id, err := th.New("Node", 64)
			if err != nil {
				t.Fatal(err)
			}
			if err := th.SetField(id, "val", Int(int64(i))); err != nil {
				t.Fatal(err)
			}
			if err := th.SetField(id, "next", RefOf(prev)); err != nil {
				t.Fatal(err)
			}
			prev = id
		}
		var mig Migration
		extract = testing.AllocsPerRun(10, func() {
			var err error
			if mig, err = client.ExtractMigration(mig.Batch[:0], []string{"Node"}); err != nil || len(mig.IDs) != n {
				t.Fatalf("extract: %d objects, %v; want %d", len(mig.IDs), err, n)
			}
		})
		// AllocsPerRun(1, f) calls f twice, so two receivers.
		var receivers []*VM
		for range 2 {
			r := New(client.Registry(), Config{Role: RoleSurrogate})
			for _, id := range mig.IDs {
				if _, err := r.StubFor(0, id, "Node"); err != nil {
					t.Fatal(err)
				}
			}
			receivers = append(receivers, r)
		}
		adopt = testing.AllocsPerRun(1, func() {
			r := receivers[0]
			receivers = receivers[1:]
			if ids, err := r.AdoptMigration(0, mig.Batch); err != nil || len(ids) != n {
				t.Fatalf("adopt: %d objects, %v; want %d", len(ids), err, n)
			}
		})
		return extract, adopt
	}
	e64, a64 := counts(64)
	e1k, a1k := counts(1024)
	if e64 != e1k || a64 != a1k {
		t.Errorf("allocations for 64 and 1,024 objects: extract %v and %v, adopt %v and %v; want each pair equal", e64, e1k, a64, a1k)
	}
	if e64 > 4 || a64 > 4 {
		t.Errorf("extract %v, adopt %v allocations a batch; want at most 4 each", e64, a64)
	}
	t.Logf("extract %v, adopt %v allocations a batch", e64, a64)
}
