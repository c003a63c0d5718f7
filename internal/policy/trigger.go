package policy

import (
	"fmt"
	"time"
)

// MemoryTrigger decides when memory pressure warrants a partitioning
// attempt. The paper's prototype triggers partitioning "when three
// successive garbage collection cycles indicate that additional memory
// cannot be freed or that less than 5% of memory is available" (§5.1); the
// threshold and the tolerance to low-memory signals are the two parameters
// the Figure 7 policy sweep varies.
type MemoryTrigger struct {
	// FreeFraction is the low-memory threshold: a GC report with free/cap
	// below it counts as a low-memory signal. Figure 7 sweeps 0.02–0.50.
	FreeFraction float64

	// Tolerance is the number of consecutive low-memory signals required
	// before the trigger fires. Figure 7 sweeps 1–3.
	Tolerance int

	consecutive int
}

// Validate reports whether the trigger parameters are usable.
func (t *MemoryTrigger) Validate() error {
	if t.FreeFraction < 0 || t.FreeFraction > 1 {
		return fmt.Errorf("policy: free fraction %v outside [0,1]", t.FreeFraction)
	}
	if t.Tolerance < 1 {
		return fmt.Errorf("policy: tolerance %d must be at least 1", t.Tolerance)
	}
	return nil
}

// Report feeds one garbage-collection cycle's outcome into the trigger and
// reports whether partitioning should be attempted now. A cycle counts as
// a low-memory signal when the post-cycle free fraction is below the
// threshold. (The paper's other firing condition — "additional memory
// cannot be freed" — corresponds to a failed demand collection, which the
// platform handles through the allocation-failure path rather than the
// periodic trigger; see the emulator's hard-pressure partition and the
// VM's pressure handler.) freed is retained for diagnostics.
func (t *MemoryTrigger) Report(free, capacity int64, freed bool) bool {
	_ = freed
	low := capacity > 0 && float64(free)/float64(capacity) < t.FreeFraction
	if !low {
		t.consecutive = 0
		return false
	}
	t.consecutive++
	if t.consecutive >= t.Tolerance {
		t.consecutive = 0
		return true
	}
	return false
}

// Reset clears accumulated low-memory signals, e.g. after an offload.
func (t *MemoryTrigger) Reset() { t.consecutive = 0 }

// PeriodicTrigger fires on periodic re-evaluation of the placement (paper
// §2: "Based on either resource variation triggers or periodic
// re-evaluation, the platform should be able to adapt"). It operates on a
// caller-supplied clock so that it works identically under simulated and
// wall-clock time.
type PeriodicTrigger struct {
	// Every is the re-evaluation period.
	Every time.Duration

	last    time.Duration
	started bool
}

// Tick reports whether the period has elapsed at the given clock reading.
func (t *PeriodicTrigger) Tick(now time.Duration) bool {
	if t.Every <= 0 {
		return false
	}
	if !t.started {
		t.started = true
		t.last = now
		return false
	}
	if now-t.last >= t.Every {
		t.last = now
		return true
	}
	return false
}

// DisconnectTrigger pins the application local after a surrogate
// disconnection. Losing a surrogate mid-run is evidence the environment is
// unstable (the paper's §2 ad-hoc platforms form over transient wireless
// links), so immediately re-offloading to another — or a reconnected —
// surrogate risks thrashing. The trigger suppresses offloading for a
// cooldown measured in garbage-collection cycles, the same clock the
// memory trigger runs on.
type DisconnectTrigger struct {
	// CooldownCycles is how many GC cycles offloading stays suppressed
	// after a disconnection. Zero means the default of 3 (mirroring the
	// paper's three-cycle memory-trigger tolerance).
	CooldownCycles int

	remaining int
	fired     int
}

// Fire records a disconnection and (re)starts the cooldown.
func (t *DisconnectTrigger) Fire() {
	n := t.CooldownCycles
	if n <= 0 {
		n = 3
	}
	t.remaining = n
	t.fired++
}

// Report feeds one garbage-collection cycle into the trigger, aging the
// cooldown toward expiry.
func (t *DisconnectTrigger) Report() {
	if t.remaining > 0 {
		t.remaining--
	}
}

// Active reports whether offloading is currently suppressed.
func (t *DisconnectTrigger) Active() bool { return t.remaining > 0 }

// Fired returns how many disconnections the trigger has recorded.
func (t *DisconnectTrigger) Fired() int { return t.fired }

// Reset clears the cooldown, e.g. when a fresh surrogate attaches.
func (t *DisconnectTrigger) Reset() { t.remaining = 0 }

// Params bundles the three policy parameters the Figure 7 sweep varies.
type Params struct {
	// TriggerFreeFraction is the low-memory threshold (0.02–0.50).
	TriggerFreeFraction float64

	// Tolerance is the consecutive-signal requirement (1–3).
	Tolerance int

	// MinFreeFraction is the minimum heap fraction a partitioning must
	// free (0.10–0.80).
	MinFreeFraction float64
}

// String renders the parameters the way EXPERIMENTS.md reports them.
func (p Params) String() string {
	return fmt.Sprintf("trigger<%.0f%% ×%d, free≥%.0f%%",
		p.TriggerFreeFraction*100, p.Tolerance, p.MinFreeFraction*100)
}

// InitialParams returns the paper's initial policy: trigger at 5% free with
// three consecutive signals, free at least 20% of memory (§5.1).
func InitialParams() Params {
	return Params{TriggerFreeFraction: 0.05, Tolerance: 3, MinFreeFraction: 0.20}
}

// SweepSpace enumerates the Figure 7 policy space: the partition triggering
// threshold varied from 2% to 50% of memory remaining free, the tolerance
// to low-memory signals varied from one to three events, and the minimum
// amount of memory to free varied from 10% to 80%.
func SweepSpace() []Params {
	thresholds := []float64{0.02, 0.05, 0.10, 0.20, 0.30, 0.40, 0.50}
	tolerances := []int{1, 2, 3}
	minFree := []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80}
	out := make([]Params, 0, len(thresholds)*len(tolerances)*len(minFree))
	for _, th := range thresholds {
		for _, tol := range tolerances {
			for _, mf := range minFree {
				out = append(out, Params{
					TriggerFreeFraction: th,
					Tolerance:           tol,
					MinFreeFraction:     mf,
				})
			}
		}
	}
	return out
}
