package vm_test

import (
	"testing"

	"aide"
	"aide/internal/apps"
	"aide/internal/vm"
)

// javaNoteOffload runs JavaNote to completion on a client at its
// recording heap and returns the client's heap as it stood then, the
// registry, and the classes the client's first offload moved: the
// 1,545-object batch of the live_apps benchmark's offload cycle.
func javaNoteOffload(t testing.TB) (*vm.SnapshotState, *vm.Registry, *aide.OffloadReport) {
	t.Helper()
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		t.Fatal(err)
	}
	reg, driver, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	client, surrogate, err := aide.NewLocalPair(reg, []aide.Option{aide.WithHeap(spec.RecordHeap)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = client.Close()
		_ = surrogate.Close()
	}()
	if err := driver(client.Thread()); err != nil {
		t.Fatal(err)
	}
	heap := client.VM().ExportSnapshot()
	rep, err := client.Offload()
	if err != nil {
		t.Fatal(err)
	}
	return heap, reg, rep
}

// TestJavaNoteBatchMatchesReference holds the direct migrate path to the
// reference on JavaNote's real offload batch: the same bytes, the same
// sender pins, the same receiver.
func TestJavaNoteBatchMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("full JavaNote scenario is slow")
	}
	heap, reg, rep := javaNoteOffload(t)
	var senders, receivers [2]*vm.VM
	for i := range senders {
		senders[i] = vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 30})
		if err := senders[i].ImportSnapshot(heap); err != nil {
			t.Fatal(err)
		}
		receivers[i] = vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 1 << 30})
	}
	ids, _ := vm.CheckAgainstReference(t, senders, receivers, 0, rep.Classes)
	if len(ids) != rep.Objects || len(ids) != 1545 {
		t.Fatalf("moved %d objects, the client's offload %d; want the 1,545 of the golden", len(ids), rep.Objects)
	}
}
