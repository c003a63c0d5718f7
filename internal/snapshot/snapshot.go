// Package snapshot captures a VM's complete heap and class state as a
// deterministic, self-contained image: the object table with exact IDs,
// field values, roots, and statics. The image has a versioned binary
// encoding with a byte-identical round-trip guarantee — encoding the
// restored state reproduces the original bytes exactly — pinned by golden
// tests.
//
// Copy-on-write: a snapshot copies object payloads once, at capture, and
// shares the immutable class state (the registry) by reference. Mutating
// the VM after Snapshot never changes the image, and restoring the image
// into several VMs (CloneVM) shares the class definitions between them.
//
// The image is the unit two platform features move around:
//
//   - speculative clone execution: the client keeps a clone of the
//     surrogate session's heap and, when the link degrades, races local
//     execution on the clone against the remote call — first result
//     wins, and on promotion the clone's state is the authoritative copy
//     (the remote copy is discarded wholesale, keeping the merge
//     exactly-once);
//   - live session handoff: a draining surrogate snapshots each session
//     and ships it to the destination surrogate, where the restore
//     preserves every object ID, so the client's stubs stay valid and
//     only its peer slot needs re-pointing.
package snapshot

import (
	"fmt"

	"aide/internal/vm"
)

// Image is one captured VM state.
type Image struct {
	State *vm.SnapshotState
}

// Snapshot captures v's heap, roots, and statics. The image shares no
// mutable memory with the VM.
func Snapshot(v *vm.VM) *Image {
	return &Image{State: v.ExportSnapshot()}
}

// Restore replaces v's heap and class state with the image's, preserving
// object IDs exactly. Every class named by the image must exist in v's
// registry and the restored bytes must fit v's heap; on error v is
// unchanged.
func Restore(v *vm.VM, img *Image) error {
	if img == nil || img.State == nil {
		return fmt.Errorf("snapshot: restore: empty image")
	}
	return v.ImportSnapshot(img.State)
}

// CloneVM builds a new VM sharing src's class registry and carrying a
// copy of its heap state. Zero cfg fields inherit src's role, heap
// capacity, and CPU speed. The clone starts with no peers attached:
// operations on stubs fail until the caller attaches (or the platform
// treats the failure as a speculation miss).
func CloneVM(src *vm.VM, cfg vm.Config) (*vm.VM, error) {
	if cfg.Role == 0 {
		cfg.Role = src.Role()
	}
	if cfg.HeapCapacity == 0 {
		cfg.HeapCapacity = src.Heap().Capacity
	}
	if cfg.CPUSpeed == 0 {
		cfg.CPUSpeed = src.CPUSpeed()
	}
	clone := vm.New(src.Registry(), cfg)
	if err := clone.ImportSnapshot(src.ExportSnapshot()); err != nil {
		return nil, fmt.Errorf("snapshot: clone: %w", err)
	}
	return clone, nil
}
