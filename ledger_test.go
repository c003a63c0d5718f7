package aide

import (
	"reflect"
	"testing"

	"aide/internal/apps"
)

// loadedJavaNote runs JavaNote to completion on a client at its 12 MiB
// recording heap, where the memory trigger never fires, so every offload
// afterwards is an explicit one — the client benchmark/wl_live.go cycles.
func loadedJavaNote(t *testing.T) *Client {
	t.Helper()
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		t.Fatal(err)
	}
	reg, driver, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	client, surrogate, err := NewLocalPair(reg, []Option{WithHeap(spec.RecordHeap)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = client.Close()
		_ = surrogate.Close()
	})
	if err := driver(client.Thread()); err != nil {
		t.Fatal(err)
	}
	if reports, _ := client.Offloads(); len(reports) != 0 {
		t.Fatal("JavaNote offloaded by itself at its recording heap")
	}
	return client
}

// TestMonitorLedgerBalancesAcrossCycles: the monitor's per-class memory
// is the platform's memory for the class — the bytes of its live local
// objects plus, for every live stub, the bytes of the object it stands
// for — and must stay that across offload, recall and collection. A
// recall used to credit a second time every returning object whose stub
// had survived, 3.1 MB of them per cycle.
func TestMonitorLedgerBalancesAcrossCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("full JavaNote scenario is slow")
	}
	c := loadedJavaNote(t)
	check := func(cycle int, after string) {
		t.Helper()
		g, err := c.Graph()
		if err != nil {
			t.Fatal(err)
		}
		var books, heap int64
		for _, n := range g.Nodes() {
			books += n.Memory
		}
		for _, o := range c.VM().ExportSnapshot().Objects {
			if o.Remote {
				heap += o.RemoteSize
			} else {
				heap += o.Size
			}
		}
		if books != heap {
			t.Fatalf("cycle %d, after %s: monitor holds %d B, the heap and its stubs %d B (%+d)", cycle, after, books, heap, books-heap)
		}
	}
	check(0, "the run")
	for cycle := 1; cycle <= 40; cycle++ {
		rep, err := c.Offload()
		if err != nil {
			t.Fatalf("cycle %d: offload: %v", cycle, err)
		}
		check(cycle, "offload")
		if _, _, err := c.Recall(rep.Classes); err != nil {
			t.Fatalf("cycle %d: recall: %v", cycle, err)
		}
		check(cycle, "recall")
		c.VM().Collect()
		check(cycle, "collection")
	}
}

// TestOffloadCutStableAcrossCycles: a long-lived client whose application
// state does not change keeps choosing the cut it chose first. With the
// books drifting upward the policy switched to a smaller cut at cycle 35
// (1,545 objects of 103 classes, then 481 of 85).
func TestOffloadCutStableAcrossCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("full JavaNote scenario is slow")
	}
	c := loadedJavaNote(t)
	var first *OffloadReport
	for cycle := 1; cycle <= 100; cycle++ {
		rep, err := c.Offload()
		if err != nil {
			t.Fatalf("cycle %d: offload: %v", cycle, err)
		}
		if first == nil {
			first = rep
		} else if rep.Objects != first.Objects || !reflect.DeepEqual(rep.Classes, first.Classes) {
			t.Fatalf("cycle %d moved %d objects of %d classes, cycle 1 moved %d of %d", cycle, rep.Objects, len(rep.Classes), first.Objects, len(first.Classes))
		}
		if n, _, err := c.Recall(rep.Classes); err != nil || n != rep.Objects {
			t.Fatalf("cycle %d: recall moved %d objects, %v; offload had moved %d", cycle, n, err, rep.Objects)
		}
	}
}
