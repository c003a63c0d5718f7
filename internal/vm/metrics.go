package vm

import (
	"aide/internal/telemetry"
)

// Metric names, lowercase_snake constants: the registry records a
// problem for any other shape, which Registry.Check reports. Client and
// surrogate VMs in the same process register children under the same
// names; exposition sums them.
const (
	metricInvokeLocal    = "aide_vm_invocations_local_total"
	metricInvokeRemote   = "aide_vm_invocations_remote_total"
	metricObjectsCreated = "aide_vm_objects_created_total"
	metricAllocBytes     = "aide_vm_allocated_bytes_total"
	metricGCCycles       = "aide_vm_gc_cycles_total"
	metricGCReclaimed    = "aide_vm_gc_reclaimed_bytes_total"
	metricMigratedOut    = "aide_vm_migrated_out_objects_total"
	metricMigratedIn     = "aide_vm_migrated_in_objects_total"
	metricReclaimedStubs = "aide_vm_reclaimed_stubs_total"
	metricHeapLive       = "aide_vm_heap_live_bytes"
	metricHeapFree       = "aide_vm_heap_free_bytes"
	metricHeapObjects    = "aide_vm_heap_objects"
)

// vmMetrics carries the VM's instruments. All fields stay nil when the
// VM is built without a telemetry registry, making every update on the
// allocation/invocation/GC hot paths a nil-check no-op.
type vmMetrics struct {
	invokeLocal    *telemetry.Counter
	invokeRemote   *telemetry.Counter
	objectsCreated *telemetry.Counter
	allocBytes     *telemetry.Counter
	gcCycles       *telemetry.Counter
	gcReclaimed    *telemetry.Counter
	migratedOut    *telemetry.Counter
	migratedIn     *telemetry.Counter
	reclaimedStubs *telemetry.Counter
}

func newVMMetrics(reg *telemetry.Registry) vmMetrics {
	if reg == nil {
		return vmMetrics{}
	}
	return vmMetrics{
		invokeLocal:    reg.Counter(metricInvokeLocal, "method invocations executed on this vm"),
		invokeRemote:   reg.Counter(metricInvokeRemote, "method invocations forwarded to a peer vm"),
		objectsCreated: reg.Counter(metricObjectsCreated, "objects allocated"),
		allocBytes:     reg.Counter(metricAllocBytes, "bytes allocated"),
		gcCycles:       reg.Counter(metricGCCycles, "garbage-collection cycles"),
		gcReclaimed:    reg.Counter(metricGCReclaimed, "bytes reclaimed by garbage collection"),
		migratedOut:    reg.Counter(metricMigratedOut, "objects extracted into outgoing migrations"),
		migratedIn:     reg.Counter(metricMigratedIn, "objects adopted from incoming migrations"),
		reclaimedStubs: reg.Counter(metricReclaimedStubs, "stubs re-materialized locally after a peer was lost"),
	}
}

// registerHeapGauges samples the VM heap at scrape time. The callbacks
// take v.mu briefly; the exposition goroutine never holds it while the
// VM calls into telemetry, so there is no lock-order cycle.
func registerHeapGauges(reg *telemetry.Registry, v *VM) {
	reg.GaugeFunc(metricHeapLive, "live bytes in the vm heap", func() int64 { return v.Heap().Live })
	reg.GaugeFunc(metricHeapFree, "free bytes in the vm heap", func() int64 { return v.Heap().Free })
	reg.GaugeFunc(metricHeapObjects, "objects resident in the vm heap", func() int64 { return v.Heap().Objects })
}
