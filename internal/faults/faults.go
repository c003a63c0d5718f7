// Package faults provides a deterministic, seedable fault-injecting
// decorator around a remote.Transport. It can drop, delay, duplicate,
// and corrupt individual messages, and hard-sever or silently blackhole
// the connection, on a scripted schedule, a pseudo-random one, or both.
// The chaos suite drives the platform's robustness machinery (deadlines,
// retries, the connection-state machine, local failover) through it; the
// same profile and seed always produce the same fault sequence.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aide/internal/remote"
	"aide/internal/telemetry"
)

// Kind enumerates the injectable faults.
type Kind int

// Fault kinds.
const (
	// Drop discards the message and reports a send error — a detectable
	// loss, which the peer's send-retry machinery may recover.
	Drop Kind = iota + 1

	// Delay delivers the message after a pause on a separate goroutine,
	// so later messages may overtake it.
	Delay

	// Dup delivers the message twice; the receiver's dedupe window must
	// suppress the second execution.
	Dup

	// Corrupt encodes the message, mutates the frame bytes, runs the
	// decoder over the result (the codec must never panic on a mutated
	// frame), and reports a send error.
	Corrupt

	// Sever hard-closes the underlying transport: every later operation
	// on either side fails, the peers' receive loops observe the death.
	Sever

	// Blackhole half-closes the connection silently: sends report
	// success but vanish and received traffic stops, the hang scenario
	// only deadlines can detect.
	Blackhole
)

// String returns the fault's name.
func (k Kind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Dup:
		return "dup"
	case Corrupt:
		return "corrupt"
	case Sever:
		return "sever"
	case Blackhole:
		return "blackhole"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Action schedules one scripted fault: the OnSend-th Send (1-based)
// suffers Fault, regardless of the random rates.
type Action struct {
	OnSend int64
	Fault  Kind
}

// Profile configures an injector. The zero value injects nothing.
type Profile struct {
	// Seed drives the pseudo-random schedule; the same seed and traffic
	// produce the same fault sequence. Zero is a valid (fixed) seed.
	Seed int64

	// Per-send probabilities of each random fault, evaluated in this
	// order: drop, corrupt, dup, delay. At most one fires per message.
	DropRate    float64
	CorruptRate float64
	DupRate     float64
	DelayRate   float64

	// DelayMin and DelayMax bound an injected delay; a delay of zero
	// duration delivers immediately (still on a separate goroutine, so
	// reordering remains possible). DelayMax of zero defaults to 1ms.
	DelayMin, DelayMax time.Duration

	// SeverAfter hard-severs the connection on the Nth send (1-based);
	// zero never severs. BlackholeAfter silently swallows traffic from
	// the Nth send on; zero never blackholes.
	SeverAfter     int64
	BlackholeAfter int64

	// Script lists exact-send faults that override the random schedule.
	Script []Action

	// Telemetry, when non-nil, registers aide_faults_* counters mirroring
	// Stats on the registry, so scraped metrics show which faults the
	// injector actually delivered. Nil keeps the injector registry-free.
	Telemetry *telemetry.Registry
}

// Injected-fault metric names.
const (
	metricFaultSends      = "aide_faults_sends_total"
	metricFaultDropped    = "aide_faults_dropped_total"
	metricFaultDelayed    = "aide_faults_delayed_total"
	metricFaultDuplicated = "aide_faults_duplicated_total"
	metricFaultCorrupted  = "aide_faults_corrupted_total"
	metricFaultSwallowed  = "aide_faults_blackholed_total"
)

// faultMetrics mirrors Stats onto a telemetry registry. All fields are
// nil-safe no-ops when no registry was configured.
type faultMetrics struct {
	sends      *telemetry.Counter
	dropped    *telemetry.Counter
	delayed    *telemetry.Counter
	duplicated *telemetry.Counter
	corrupted  *telemetry.Counter
	swallowed  *telemetry.Counter
}

func newFaultMetrics(reg *telemetry.Registry) faultMetrics {
	if reg == nil {
		return faultMetrics{}
	}
	return faultMetrics{
		sends:      reg.Counter(metricFaultSends, "Messages offered to the fault injector."),
		dropped:    reg.Counter(metricFaultDropped, "Messages dropped by fault injection."),
		delayed:    reg.Counter(metricFaultDelayed, "Messages delayed by fault injection."),
		duplicated: reg.Counter(metricFaultDuplicated, "Messages duplicated by fault injection."),
		corrupted:  reg.Counter(metricFaultCorrupted, "Messages corrupted by fault injection."),
		swallowed:  reg.Counter(metricFaultSwallowed, "Messages silently swallowed by an injected blackhole."),
	}
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	Sends                int64
	Dropped              int64
	Delayed              int64
	Duplicated           int64
	Corrupted            int64
	SwallowedByBlackhole int64
}

// Injection errors. Drop and Corrupt surface through Send so the peer's
// retry machinery can observe a detectable loss; ErrSevered marks
// operations on a severed or closed injector.
var (
	ErrInjectedDrop    = errors.New("faults: injected drop")
	ErrInjectedCorrupt = errors.New("faults: injected corruption")
	ErrSevered         = errors.New("faults: connection severed")
)

// Transport is the fault-injecting decorator. Wrap one side's transport
// (or both, with independent profiles) before handing it to
// remote.NewPeer.
type Transport struct {
	inner remote.Transport
	prof  Profile

	// rng drives the random schedule, guarded so concurrent senders draw
	// a deterministic sequence (their interleaving is the only source of
	// nondeterminism; seeded single-threaded runs are fully repeatable).
	mu  sync.Mutex
	rng *rand.Rand

	script map[int64]Kind

	sends      atomic.Int64
	severed    atomic.Bool
	blackholed atomic.Bool

	closeOnce sync.Once
	closed    chan struct{}
	delays    sync.WaitGroup

	// intr wakes a Recv parked in the blackhole, which never reaches the
	// wrapped transport (capacity 1: interrupts collapse).
	intr chan struct{}

	// tm mirrors the atomic counters below onto a telemetry registry when
	// the profile carries one; every field is a nil-safe no-op otherwise.
	tm faultMetrics

	dropped    atomic.Int64
	delayed    atomic.Int64
	duplicated atomic.Int64
	corrupted  atomic.Int64
	swallowed  atomic.Int64
}

var (
	_ remote.Transport       = (*Transport)(nil)
	_ remote.RecvInterrupter = (*Transport)(nil)
)

// Wrap decorates inner with the profile's fault schedule.
func Wrap(inner remote.Transport, prof Profile) *Transport {
	if prof.DelayMax <= 0 {
		prof.DelayMax = time.Millisecond
	}
	if prof.DelayMin > prof.DelayMax {
		prof.DelayMin = prof.DelayMax
	}
	t := &Transport{
		inner:  inner,
		prof:   prof,
		rng:    rand.New(rand.NewSource(prof.Seed)),
		closed: make(chan struct{}),
		intr:   make(chan struct{}, 1),
		tm:     newFaultMetrics(prof.Telemetry),
	}
	if len(prof.Script) > 0 {
		t.script = make(map[int64]Kind, len(prof.Script))
		for _, a := range prof.Script {
			t.script[a.OnSend] = a.Fault
		}
	}
	return t
}

// Stats returns a snapshot of the injector's fault counts.
func (t *Transport) Stats() Stats {
	return Stats{
		Sends:                t.sends.Load(),
		Dropped:              t.dropped.Load(),
		Delayed:              t.delayed.Load(),
		Duplicated:           t.duplicated.Load(),
		Corrupted:            t.corrupted.Load(),
		SwallowedByBlackhole: t.swallowed.Load(),
	}
}

// Sever hard-closes the underlying transport now, as if the link
// physically died: both peers' receive loops observe the failure.
func (t *Transport) Sever() error {
	if t.severed.CompareAndSwap(false, true) {
		return t.inner.Close()
	}
	return nil
}

// Blackhole silently half-closes the connection from now on: sends
// report success but vanish, and incoming traffic stops without any
// error. Only deadlines can detect this state.
func (t *Transport) Blackhole() {
	t.blackholed.Store(true)
}

// decide picks the fault for send n, scripted faults first, then the
// random rates (at most one per message).
func (t *Transport) decide(n int64) Kind {
	if f, ok := t.script[n]; ok {
		return f
	}
	if t.prof.SeverAfter > 0 && n >= t.prof.SeverAfter {
		return Sever
	}
	if t.prof.BlackholeAfter > 0 && n >= t.prof.BlackholeAfter {
		return Blackhole
	}
	p := t.prof
	if p.DropRate == 0 && p.CorruptRate == 0 && p.DupRate == 0 && p.DelayRate == 0 {
		return 0
	}
	t.mu.Lock()
	r := t.rng.Float64()
	t.mu.Unlock()
	switch {
	case r < p.DropRate:
		return Drop
	case r < p.DropRate+p.CorruptRate:
		return Corrupt
	case r < p.DropRate+p.CorruptRate+p.DupRate:
		return Dup
	case r < p.DropRate+p.CorruptRate+p.DupRate+p.DelayRate:
		return Delay
	}
	return 0
}

// Send applies the scheduled fault for this message, if any, and
// otherwise forwards to the wrapped transport.
func (t *Transport) Send(m *remote.Message) error {
	if t.blackholed.Load() {
		t.swallowed.Add(1)
		t.tm.swallowed.Inc()
		return nil
	}
	if t.severed.Load() {
		return fmt.Errorf("%w: %w", remote.ErrClosed, ErrSevered)
	}
	n := t.sends.Add(1)
	t.tm.sends.Inc()
	switch t.decide(n) {
	case Drop:
		t.dropped.Add(1)
		t.tm.dropped.Inc()
		return fmt.Errorf("%w: send %d", ErrInjectedDrop, n)
	case Corrupt:
		return t.corrupt(m, n)
	case Dup:
		if err := t.inner.Send(m); err != nil {
			return err
		}
		t.duplicated.Add(1)
		t.tm.duplicated.Inc()
		return t.inner.Send(m)
	case Delay:
		return t.delay(m)
	case Sever:
		if err := t.Sever(); err != nil {
			return fmt.Errorf("%w: %v", ErrSevered, err)
		}
		return fmt.Errorf("%w: %w", remote.ErrClosed, ErrSevered)
	case Blackhole:
		t.Blackhole()
		t.swallowed.Add(1)
		t.tm.swallowed.Inc()
		return nil
	}
	return t.inner.Send(m)
}

// corrupt encodes m, mutates the frame, proves the decoder survives the
// mutation (never panics; it may or may not return an error), and
// reports the corruption as a send failure — a real transport would
// fail its frame checksum the same way.
func (t *Transport) corrupt(m *remote.Message, n int64) error {
	frame, err := remote.AppendFrame(nil, m)
	if err != nil {
		return err
	}
	t.mu.Lock()
	mutated := MutateFrame(t.rng, frame)
	t.mu.Unlock()
	if dm, derr := remote.DecodeFrame(mutated); derr == nil && dm != nil {
		// The mutation decoded cleanly (e.g. a no-op flip); it still
		// counts as corruption — the checksum layer rejects it.
		_ = dm
	}
	t.corrupted.Add(1)
	t.tm.corrupted.Inc()
	return fmt.Errorf("%w: send %d", ErrInjectedCorrupt, n)
}

// delay re-delivers a deep copy of m after a pause on its own goroutine.
// The copy matters: Transport senders may reuse the message as soon as
// Send returns.
func (t *Transport) delay(m *remote.Message) error {
	cp, err := cloneMessage(m)
	if err != nil {
		return err
	}
	t.mu.Lock()
	d := t.prof.DelayMin
	if span := t.prof.DelayMax - t.prof.DelayMin; span > 0 {
		d += time.Duration(t.rng.Int63n(int64(span)))
	}
	t.mu.Unlock()
	t.delayed.Add(1)
	t.tm.delayed.Inc()
	t.delays.Add(1)
	go func() {
		defer t.delays.Done()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-t.closed:
			return
		}
		if t.blackholed.Load() || t.severed.Load() {
			return
		}
		if err := t.inner.Send(cp); err != nil {
			// The transport died while the message was in flight; a real
			// network loses it the same way. Our own Close is not a fault:
			// counting what it cuts off would make Dropped depend on timing.
			select {
			case <-t.closed:
			default:
				t.dropped.Add(1)
				t.tm.dropped.Inc()
			}
		}
	}()
	return nil
}

// cloneMessage deep-copies a message through the wire codec.
func cloneMessage(m *remote.Message) (*remote.Message, error) {
	frame, err := remote.AppendFrame(nil, m)
	if err != nil {
		return nil, err
	}
	return remote.DecodeFrame(frame)
}

// Recv forwards to the wrapped transport. A blackholed injector swallows
// arrivals and blocks until the injector (or the inner transport) is
// closed — the silent half-close the deadline machinery exists for.
func (t *Transport) Recv() (*remote.Message, error) {
	for {
		if t.blackholed.Load() {
			select {
			case <-t.closed:
				return nil, fmt.Errorf("%w: %w", remote.ErrClosed, ErrSevered)
			case <-t.intr:
				return nil, remote.ErrRecvInterrupted
			}
		}
		m, err := t.inner.Recv()
		if err != nil {
			return nil, err
		}
		if t.blackholed.Load() {
			t.swallowed.Add(1)
			t.tm.swallowed.Inc()
			continue
		}
		return m, nil
	}
}

// InterruptRecv passes the wrapped transport's capability through (see
// remote.RecvInterrupter): the injector can interrupt exactly when what it
// wraps can.
func (t *Transport) InterruptRecv() bool {
	ri, ok := t.inner.(remote.RecvInterrupter)
	if !ok || !ri.InterruptRecv() {
		return false
	}
	select {
	case t.intr <- struct{}{}:
	default:
	}
	return true
}

// Close closes the injector and the wrapped transport, and waits for any
// in-flight delayed deliveries to settle.
func (t *Transport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.closed)
		err = t.inner.Close()
		t.delays.Wait()
	})
	return err
}

// MutateFrame returns a mutated copy of an encoded frame: byte flips,
// truncation, zero-fill runs, or appended garbage, chosen by rng. The
// corrupt fault and the codec fuzz target share it, so the fuzzer
// explores exactly the mutations the injector performs.
func MutateFrame(rng *rand.Rand, frame []byte) []byte {
	out := make([]byte, len(frame))
	copy(out, frame)
	if len(out) == 0 {
		return []byte{byte(rng.Intn(256))}
	}
	switch rng.Intn(4) {
	case 0: // flip 1..4 random bytes
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			out[rng.Intn(len(out))] ^= byte(1 + rng.Intn(255))
		}
	case 1: // truncate
		out = out[:rng.Intn(len(out))]
	case 2: // zero-fill a run
		start := rng.Intn(len(out))
		end := start + 1 + rng.Intn(len(out)-start)
		for i := start; i < end; i++ {
			out[i] = 0
		}
	case 3: // append garbage
		tail := make([]byte, 1+rng.Intn(16))
		for i := range tail {
			tail[i] = byte(rng.Intn(256))
		}
		out = append(out, tail...)
	}
	return out
}
