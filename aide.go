// Package aide is a distributed platform for resource-constrained devices:
// a Go reproduction of AIDE from "Towards a Distributed Platform for
// Resource-Constrained Devices" (ICDCS 2002).
//
// A resource-constrained client device runs applications on an interpreted
// object VM. The platform monitors the application's execution and the
// state of system resources; when a trigger event occurs — resources
// running low or periodic re-evaluation — it analyzes the collected
// execution graph, decides whether offloading part of the application to a
// nearby surrogate server would be beneficial, and if so transparently
// migrates the selected classes' objects. Remote data accesses and method
// invocations then transparently cross the network in both directions.
//
// The package exposes the platform's three roles:
//
//   - Client: the constrained device. Runs the application, monitors it,
//     partitions it, offloads to a surrogate.
//   - Surrogate: a nearby server that lends memory and CPU.
//   - The application model: classes with Go-closure method bodies
//     registered in a Registry shared by both sides (the stand-in for Java
//     bytecode, which the paper assumes both VMs can access).
//
// Use NewLocalPair for an in-process platform, or NewClient /
// NewSurrogate with a TCP transport for a real two-process deployment.
package aide

import (
	"context"
	"time"

	"aide/internal/netmodel"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/vm"
)

// Re-exported application-model types. The aliases make the VM's object
// model usable through the public API.
type (
	// Registry holds class definitions shared by client and surrogate.
	Registry = vm.Registry

	// ClassSpec declares a class; MethodSpec declares a method.
	ClassSpec = vm.ClassSpec
	// MethodSpec declares one method of a ClassSpec.
	MethodSpec = vm.MethodSpec

	// Thread is the execution context handed to method bodies.
	Thread = vm.Thread

	// Value is the VM's tagged scalar/reference union.
	Value = vm.Value

	// ObjectID identifies an object in a VM's namespace.
	ObjectID = vm.ObjectID

	// Link models the client↔surrogate network for simulated costing.
	Link = netmodel.Link

	// PolicyParams bundles the trigger/partitioning policy parameters.
	PolicyParams = policy.Params

	// Pipeline batches a chain of dependent remote invocations into one
	// round trip (promise pipelining); build one with Client.NewPipeline.
	Pipeline = vm.Pipeline

	// Promise is the not-yet-resolved result of a pipelined call.
	Promise = vm.Promise

	// PipelineError identifies the failing call of a pipelined frame;
	// every dependent promise yields the same *PipelineError.
	PipelineError = vm.PipelineError
)

// InvalidObject is the zero object reference.
const InvalidObject = vm.InvalidObject

// Typed session-control errors, re-exported from the remote module.
// Attach (and any later call on a rejected session) matches them with
// errors.Is across the wire.
var (
	// ErrAdmissionRejected reports an attach refused by the surrogate's
	// session or heap-quota cap.
	ErrAdmissionRejected = remote.ErrAdmissionRejected
	// ErrShed reports an attach refused because the surrogate's health
	// check says it is degraded and shedding load.
	ErrShed = remote.ErrShed
	// ErrEvicted reports a session the surrogate tore down to reclaim
	// capacity.
	ErrEvicted = remote.ErrEvicted
	// ErrDrained reports a request that reached a surrogate mid-handoff:
	// the session is moving to another surrogate. Clients handle the
	// redirect transparently (the call blocks until the handoff lands and
	// retries against the new home); the error surfaces only when the
	// handoff cannot complete.
	ErrDrained = remote.ErrDrained
)

// NewRegistry returns an empty class registry.
func NewRegistry() *Registry { return vm.NewRegistry() }

// Value constructors, re-exported.
var (
	// Nil returns the nil value.
	Nil = vm.Nil
	// Int boxes an integer.
	Int = vm.Int
	// Float boxes a float.
	Float = vm.Float
	// Bool boxes a boolean.
	Bool = vm.Bool
	// Str boxes a string.
	Str = vm.Str
	// Blob boxes a byte payload.
	Blob = vm.Blob
	// RefOf boxes an object reference.
	RefOf = vm.RefOf
)

// WaveLAN returns the paper's 11 Mbps / 2.4 ms RTT link model.
func WaveLAN() Link { return netmodel.WaveLAN() }

// InitialPolicy returns the paper's initial policy parameters: trigger
// below 5% free memory on three consecutive collection cycles, free at
// least 20% of the heap.
func InitialPolicy() PolicyParams { return policy.InitialParams() }

// Option configures platform construction.
type Option func(*options)

type options struct {
	heap        int64
	cpuSpeed    float64
	workers     int
	link        *netmodel.Link
	params      policy.Params
	monitor     bool
	monCost     time.Duration
	stateless   bool
	rebalanceGC int

	// Connection-robustness knobs, passed through to remote.Options.
	callTimeout     time.Duration
	retryMax        int
	retryBase       time.Duration
	disconnectAfter int
	probeInterval   time.Duration
	disconnectCool  int
	logf            func(format string, args ...any)

	// Observability, from WithTelemetry. Both nil by default: every
	// instrument the platform holds is then a nil-safe no-op.
	telemetry *TelemetryRegistry
	tracer    *Tracer

	// Surrogate session control, from WithMaxSessions, WithSessionQuota,
	// WithHealthCheck, and WithEvictOnDegraded. All inert on clients.
	maxSessions     int
	sessionQuota    int64
	healthCheck     func() error
	evictOnDegraded bool

	// Live-handoff and speculation knobs, from WithDialer,
	// WithHandoffTimeout, and WithSpeculation. All inert on surrogates.
	dialer         func(ctx context.Context, addr string) (remote.Transport, error)
	handoffTimeout time.Duration
	speculate      bool

	// Fleet-control credential, from WithDrainKey. Inert on clients.
	drainKey string
}

// remoteOptions maps the platform options onto the remote module's
// connection options.
func (o *options) remoteOptions() remote.Options {
	return remote.Options{
		Workers:         o.workers,
		Link:            o.link,
		CallTimeout:     o.callTimeout,
		RetryMax:        o.retryMax,
		RetryBase:       o.retryBase,
		DisconnectAfter: o.disconnectAfter,
		ProbeInterval:   o.probeInterval,
		Logf:            o.logf,
		Telemetry:       o.telemetry,
		Tracer:          o.tracer,
	}
}

func defaultOptions() options {
	return options{
		heap:     64 << 20,
		cpuSpeed: 1,
		workers:  4,
		params:   policy.InitialParams(),
		monitor:  true,
	}
}

// WithHeap sets the VM heap budget in bytes (the client device's Java
// heap).
func WithHeap(bytes int64) Option { return func(o *options) { o.heap = bytes } }

// WithCPUSpeed scales the VM's simulated execution speed (the paper's
// surrogate runs 3.5× the client).
func WithCPUSpeed(speed float64) Option { return func(o *options) { o.cpuSpeed = speed } }

// WithWorkers sizes the RPC service thread pool.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithLink attaches a simulated network-cost model to remote operations.
func WithLink(l Link) Option { return func(o *options) { o.link = &l } }

// WithPolicy sets the adaptive-offloading policy parameters.
func WithPolicy(p PolicyParams) Option { return func(o *options) { o.params = p } }

// WithoutMonitoring disables execution monitoring (and with it, adaptive
// offloading): the configuration of the paper's monitoring-overhead
// baseline.
func WithoutMonitoring() Option { return func(o *options) { o.monitor = false } }

// WithMonitorCost charges simulated time per monitored event, modeling the
// prototype's ~11% monitoring overhead.
func WithMonitorCost(d time.Duration) Option { return func(o *options) { o.monCost = d } }

// WithStatelessNativeLocal executes stateless native methods on the device
// where they are invoked (the paper's §5.2 enhancement).
func WithStatelessNativeLocal() Option { return func(o *options) { o.stateless = true } }

// WithCallTimeout bounds every remote call: a reply that has not arrived
// after d fails the call with remote.ErrCallTimeout and marks the
// connection degraded. Zero (the default) waits indefinitely.
func WithCallTimeout(d time.Duration) Option {
	return func(o *options) { o.callTimeout = d }
}

// WithRetryPolicy configures the remote module's bounded retry: up to max
// re-sends after transient transport failures, with exponential backoff
// starting at base. max < 0 disables retries; max == 0 keeps the default
// budget.
func WithRetryPolicy(max int, base time.Duration) Option {
	return func(o *options) { o.retryMax = max; o.retryBase = base }
}

// WithDisconnectAfter escalates a connection to disconnected — triggering
// local fallback — after n consecutive call timeouts. n < 0 disables the
// escalation; n == 0 keeps the default of 3.
func WithDisconnectAfter(n int) Option {
	return func(o *options) { o.disconnectAfter = n }
}

// WithHealthProbe pings each connection at the given period so that a
// silent link failure is detected even while the application is idle.
// Zero disables probing.
func WithHealthProbe(interval time.Duration) Option {
	return func(o *options) { o.probeInterval = interval }
}

// WithDisconnectCooldown sets how many garbage-collection cycles the
// client stays pinned local after losing a surrogate before adaptive
// offloading may resume. Zero keeps the default of 3.
func WithDisconnectCooldown(cycles int) Option {
	return func(o *options) { o.disconnectCool = cycles }
}

// WithLogf receives the platform's rare diagnostic lines (disconnections,
// orphan replies, dropped release batches). Nil discards them.
func WithLogf(f func(format string, args ...any)) Option {
	return func(o *options) { o.logf = f }
}

// WithPeriodicRebalance re-evaluates the whole placement every n
// garbage-collection cycles while a surrogate is attached, moving classes
// in both directions (the paper's §2 "periodic re-evaluation" combined
// with its §8 global-placement direction). Zero disables it.
func WithPeriodicRebalance(everyNGCs int) Option {
	return func(o *options) { o.rebalanceGC = everyNGCs }
}

// WithMaxSessions caps how many tenant sessions a surrogate admits
// concurrently; an attach beyond the cap fails with the typed
// remote.ErrAdmissionRejected wire error. Zero (the default) is
// unlimited. Client-side the option is inert.
func WithMaxSessions(n int) Option { return func(o *options) { o.maxSessions = n } }

// WithSessionQuota sets each tenant session's private heap quota in
// bytes and turns on heap-cap admission: a surrogate refuses new
// sessions once the committed quotas would exceed its WithHeap budget.
// Zero (the default) gives every session the full budget and disables
// the heap cap, the single-tenant behavior. Client-side the option is
// inert.
func WithSessionQuota(bytes int64) Option { return func(o *options) { o.sessionQuota = bytes } }

// WithHealthCheck installs a surrogate health probe consulted at
// admission (and served by Healthz): while fn returns an error the
// surrogate is degraded and sheds new sessions with the typed
// remote.ErrShed wire error. fn runs under the surrogate's session lock
// and must be fast and concurrency-safe. Client-side the option is
// inert.
func WithHealthCheck(fn func() error) Option { return func(o *options) { o.healthCheck = fn } }

// WithEvictOnDegraded lets a degraded surrogate actively reclaim
// capacity: each shed attach attempt also evicts the admitted session
// holding the most live bytes (remote.ErrEvicted for its late requests;
// the tenant sees a disconnect and fails over locally). Off by default;
// requires WithHealthCheck to ever trigger.
func WithEvictOnDegraded() Option { return func(o *options) { o.evictOnDegraded = true } }

// WithDialer overrides how the client reaches a destination surrogate
// during a live handoff (default: a TCP dial of the address the draining
// surrogate named). Fleet deployments with in-process surrogates inject
// a dialer that resolves addresses to channel transports.
func WithDialer(dial func(ctx context.Context, addr string) (remote.Transport, error)) Option {
	return func(o *options) { o.dialer = dial }
}

// WithHandoffTimeout bounds how long a call that hit a draining
// surrogate waits for the session's new home before failing with
// ErrDrained. Zero keeps the default of 10 seconds.
func WithHandoffTimeout(d time.Duration) Option {
	return func(o *options) { o.handoffTimeout = d }
}

// WithDrainKey arms a surrogate to accept wire drain directives: a
// SnapDrain push is honored only when it presents this key, so only the
// fleet coordinator (configured with the same key) can order the
// surrogate to hand its tenants' sessions to another address. Without a
// key — the default — every wire drain directive is refused: an
// ordinary tenant connection must never be able to redirect other
// tenants' session state. The in-process Surrogate.Drain API is not
// affected. Client-side the option is inert.
func WithDrainKey(key string) Option { return func(o *options) { o.drainKey = key } }

// WithSpeculation enables speculative clone execution: while a surrogate
// connection is degraded (timing out but not yet disconnected), remote
// invocations race a local clone of the session — seeded from the last
// pulled snapshot — against the remote call, and the first result wins.
// A local win promotes the clone's state into the client VM and drops
// the connection; a remote win discards the clone. Exactly one side's
// effects survive.
func WithSpeculation() Option { return func(o *options) { o.speculate = true } }
