package remote

import (
	"aide/internal/telemetry"
)

// Metric names, lowercase_snake constants: the registry records a
// problem for any other shape, which Registry.Check reports and the
// end-to-end telemetry test requires to be absent. Every peer registers
// its own child under these names; exposition sums the children, while
// Stats() reads this peer's children back privately.
const (
	metricRequestsSent       = "aide_remote_requests_sent_total"
	metricRequestsServed     = "aide_remote_requests_served_total"
	metricBytesSent          = "aide_remote_bytes_sent_total"
	metricBytesReceived      = "aide_remote_bytes_received_total"
	metricObjectsMigrated    = "aide_remote_objects_migrated_total"
	metricMigrationBytes     = "aide_remote_migration_bytes_total"
	metricReleasesSent       = "aide_remote_releases_sent_total"
	metricReleasesReceived   = "aide_remote_releases_received_total"
	metricReleaseBatchesSent = "aide_remote_release_batches_sent_total"
	metricOrphanReplies      = "aide_remote_orphan_replies_total"
	metricSendRetries        = "aide_remote_send_retries_total"
	metricCallTimeouts       = "aide_remote_call_timeouts_total"
	metricBatchSendRetries   = "aide_remote_batch_send_retries_total"
	metricBatchCallTimeouts  = "aide_remote_batch_call_timeouts_total"
	metricPipelineFrames     = "aide_remote_pipeline_frames_total"
	metricPipelineCalls      = "aide_remote_pipeline_calls_total"
	metricFieldFetches       = "aide_remote_field_fetches_total"
	metricLazyBytesSaved     = "aide_remote_lazy_migration_saved_bytes_total"
	metricDuplicatesDropped  = "aide_remote_duplicates_dropped_total"
	metricReleasesDropped    = "aide_remote_releases_dropped_total"
	metricSelfReads          = "aide_remote_self_reads_total"
	metricInlineServes       = "aide_remote_inline_serves_total"
	metricReaderYields       = "aide_remote_reader_yields_total"
	metricQueueSpills        = "aide_remote_queue_spills_total"
	metricDegraded           = "aide_remote_state_degraded_total"
	metricHealed             = "aide_remote_state_healed_total"
	metricDisconnected       = "aide_remote_state_disconnected_total"
	metricCallLatency        = "aide_remote_call_latency_seconds"
	metricReleaseBatchSize   = "aide_remote_release_batch_size"
	metricPipelineDepth      = "aide_remote_pipeline_depth"
	metricSnapshotBytes      = "aide_remote_snapshot_bytes_total"
)

// peerMetrics is the peer's wire accounting, held as telemetry
// instruments so the same atomics feed both the Stats() snapshot shim
// and the process-wide registry. Counters are always live (standalone
// when no registry is wired) because existing callers rely on Stats;
// histograms only exist when a registry is attached — a nil histogram
// observation is a no-op, and more importantly the call path only
// reads the wall clock when the latency histogram is non-nil, so
// fake-clock tests see no extra clock consumption.
type peerMetrics struct {
	requestsSent       *telemetry.Counter
	requestsServed     *telemetry.Counter
	bytesSent          *telemetry.Counter
	bytesReceived      *telemetry.Counter
	objectsMigrated    *telemetry.Counter
	migrationBytes     *telemetry.Counter
	releasesSent       *telemetry.Counter
	releasesReceived   *telemetry.Counter
	releaseBatchesSent *telemetry.Counter
	orphanReplies      *telemetry.Counter
	sendRetries        *telemetry.Counter
	callTimeouts       *telemetry.Counter
	batchSendRetries   *telemetry.Counter
	batchCallTimeouts  *telemetry.Counter
	pipelineFrames     *telemetry.Counter
	pipelineCalls      *telemetry.Counter
	fieldFetches       *telemetry.Counter
	lazyBytesSaved     *telemetry.Counter
	duplicatesDropped  *telemetry.Counter
	releasesDropped    *telemetry.Counter
	snapshotBytes      *telemetry.Counter
	selfReads          *telemetry.Counter
	inlineServes       *telemetry.Counter
	readerYields       *telemetry.Counter
	queueSpills        *telemetry.Counter

	degraded     *telemetry.Counter
	healed       *telemetry.Counter
	disconnected *telemetry.Counter

	callLatency   *telemetry.Histogram // nil without a registry
	releaseBatch  *telemetry.Histogram // nil without a registry
	pipelineDepth *telemetry.Histogram // nil without a registry
}

// counterIn returns a registered child when a registry is wired, a
// standalone counter otherwise, so peer accounting never goes dark.
func counterIn(reg *telemetry.Registry, name, help string) *telemetry.Counter {
	if reg == nil {
		return telemetry.NewCounter()
	}
	return reg.Counter(name, help)
}

func newPeerMetrics(reg *telemetry.Registry) *peerMetrics {
	m := &peerMetrics{
		requestsSent:       counterIn(reg, metricRequestsSent, "requests issued to the peer"),
		requestsServed:     counterIn(reg, metricRequestsServed, "peer requests executed"),
		bytesSent:          counterIn(reg, metricBytesSent, "wire bytes sent"),
		bytesReceived:      counterIn(reg, metricBytesReceived, "wire bytes received"),
		objectsMigrated:    counterIn(reg, metricObjectsMigrated, "objects moved by migrations (both directions)"),
		migrationBytes:     counterIn(reg, metricMigrationBytes, "payload bytes moved by outgoing migrations"),
		releasesSent:       counterIn(reg, metricReleasesSent, "distributed-GC decrefs issued"),
		releasesReceived:   counterIn(reg, metricReleasesReceived, "distributed-GC decrefs applied"),
		releaseBatchesSent: counterIn(reg, metricReleaseBatchesSent, "coalesced release batches shipped"),
		orphanReplies:      counterIn(reg, metricOrphanReplies, "replies that arrived with no pending waiter"),
		sendRetries:        counterIn(reg, metricSendRetries, "re-sends after transient transport errors"),
		callTimeouts:       counterIn(reg, metricCallTimeouts, "calls abandoned at their deadline"),
		batchSendRetries:   counterIn(reg, metricBatchSendRetries, "re-sends of batched frames (invoke-batch, release-batch)"),
		batchCallTimeouts:  counterIn(reg, metricBatchCallTimeouts, "batched-frame calls abandoned at their deadline"),
		pipelineFrames:     counterIn(reg, metricPipelineFrames, "pipelined invoke-batch frames sent"),
		pipelineCalls:      counterIn(reg, metricPipelineCalls, "invocations carried by pipelined frames"),
		fieldFetches:       counterIn(reg, metricFieldFetches, "lazy-migration field pulls issued"),
		lazyBytesSaved:     counterIn(reg, metricLazyBytesSaved, "migration wire bytes withheld by lazy state transfer"),
		duplicatesDropped:  counterIn(reg, metricDuplicatesDropped, "incoming requests suppressed by the dedupe window"),
		releasesDropped:    counterIn(reg, metricReleasesDropped, "decrefs lost when a release batch exhausted its retries"),
		snapshotBytes:      counterIn(reg, metricSnapshotBytes, "snapshot image bytes moved (both directions)"),
		selfReads:          counterIn(reg, metricSelfReads, "replies read off the wire by the goroutine waiting for them"),
		inlineServes:       counterIn(reg, metricInlineServes, "requests served by the goroutine that read them"),
		readerYields:       counterIn(reg, metricReaderYields, "times a background receiver gave the read side to a caller"),
		queueSpills:        counterIn(reg, metricQueueSpills, "requests served on their own goroutine because every worker was busy"),
		degraded:           counterIn(reg, metricDegraded, "healthy to degraded state transitions"),
		healed:             counterIn(reg, metricHealed, "degraded to healthy state transitions"),
		disconnected:       counterIn(reg, metricDisconnected, "involuntary disconnects"),
	}
	if reg != nil {
		m.callLatency = reg.Histogram(metricCallLatency, "wall-clock round trip of peer calls", telemetry.DefaultLatencyBuckets())
		m.releaseBatch = reg.SizeHistogram(metricReleaseBatchSize, "decrefs coalesced per release batch", telemetry.DefaultSizeBuckets())
		m.pipelineDepth = reg.SizeHistogram(metricPipelineDepth, "calls per pipelined invoke-batch frame", telemetry.DefaultSizeBuckets())
	}
	return m
}
