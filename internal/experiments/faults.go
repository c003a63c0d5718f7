package experiments

// Disconnection study: the paper's central robustness claim (§2, §7) is
// that a client keeps working when the surrogate vanishes — execution
// degrades to the local heap instead of crashing. This module measures
// that claim on the live platform (vm + remote + faults, no emulator):
// first the cost of staying correct under lossy links, then the latency
// of recovering from a hard sever.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"aide/internal/faults"
	"aide/internal/remote"
	"aide/internal/vm"
)

// FaultPoint is one profile/rate cell of the fault-tolerance sweep: a
// serial counter workload (inherently non-idempotent, so a duplicated or
// lost execution is detectable) run to completion through an injector.
type FaultPoint struct {
	Profile     string  `json:"profile"`
	Rate        float64 `json:"rate"`
	Calls       int     `json:"calls"`
	SendRetries int64   `json:"send_retries"`
	Injected    int64   `json:"injected_faults"`
	DedupeDrops int64   `json:"surrogate_dedupe_drops"`
}

// String renders a sweep point.
func (p FaultPoint) String() string {
	return fmt.Sprintf("%-8s rate %4.2f: %3d calls exact, %3d send retries, %3d faults injected, %2d dup frames dropped",
		p.Profile, p.Rate, p.Calls, p.SendRetries, p.Injected, p.DedupeDrops)
}

// RecoveryStats aggregates the sever-recovery measurements: the link is
// hard-severed at a seeded random send, and recovery latency is the
// duration of the first application call that rides through the failure
// — timeout detection, stub reclamation, and local re-execution
// included.
type RecoveryStats struct {
	Runs      int           `json:"runs"`
	Recovered int           `json:"recovered"`
	MinNs     time.Duration `json:"min_ns"`
	MedianNs  time.Duration `json:"median_ns"`
	MaxNs     time.Duration `json:"max_ns"`
}

// String renders the aggregate.
func (r RecoveryStats) String() string {
	return fmt.Sprintf("sever recovery over %d runs (%d hit mid-workload): min %v  median %v  max %v",
		r.Runs, r.Recovered, r.MinNs, r.MedianNs, r.MaxNs)
}

// faultRig is a minimal live platform: one client VM talking to one
// surrogate VM through a fault-injecting transport.
type faultRig struct {
	client, surrogate *vm.VM
	pc, ps            *remote.Peer
	inj               *faults.Transport
}

func counterRegistry() (*vm.Registry, error) {
	reg := vm.NewRegistry()
	_, err := reg.Register(vm.ClassSpec{
		Name:   "Counter",
		Fields: []string{"n"},
		Methods: []vm.MethodSpec{
			{Name: "inc", Body: func(th *vm.Thread, self vm.ObjectID, args []vm.Value) (vm.Value, error) {
				cur, err := th.GetField(self, "n")
				if err != nil {
					return vm.Nil(), err
				}
				n := cur.I + 1
				return vm.Int(n), th.SetField(self, "n", vm.Int(n))
			}},
		},
	})
	if err != nil {
		return nil, err
	}
	return reg, nil
}

func newFaultRig(prof faults.Profile, opts remote.Options) (*faultRig, error) {
	reg, err := counterRegistry()
	if err != nil {
		return nil, err
	}
	client := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
	surrogate := vm.New(reg, vm.Config{Role: vm.RoleSurrogate, HeapCapacity: 8 << 20})
	ct, st := remote.NewChannelPair()
	inj := faults.Wrap(ct, prof)
	pc := remote.NewPeer(client, inj, opts)
	ps := remote.NewPeer(surrogate, st, remote.Options{Workers: 2})
	return &faultRig{client: client, surrogate: surrogate, pc: pc, ps: ps, inj: inj}, nil
}

// close tears the rig down; teardown errors caused by the injected
// failure itself (the link is already dead) are expected and swallowed.
func (r *faultRig) close() error {
	for _, err := range []error{r.pc.Close(), r.ps.Close()} {
		if err != nil &&
			!errors.Is(err, remote.ErrClosed) &&
			!errors.Is(err, remote.ErrDisconnected) &&
			!errors.Is(err, faults.ErrSevered) {
			return err
		}
	}
	return nil
}

// profileFor builds the injector profile for one sweep cell.
func profileFor(kind string, rate float64, seed int64) faults.Profile {
	p := faults.Profile{Seed: seed}
	switch kind {
	case "drop":
		p.DropRate = rate
	case "dup":
		p.DupRate = rate
	case "delay":
		p.DelayRate = rate
		p.DelayMax = 500 * time.Microsecond
	case "corrupt":
		p.CorruptRate = rate
	case "mixed":
		p.DropRate = rate / 4
		p.DupRate = rate / 4
		p.DelayRate = rate / 4
		p.CorruptRate = rate / 4
		p.DelayMax = 500 * time.Microsecond
	}
	return p
}

// FaultToleranceSweep runs the counter workload under each fault profile
// and rate, requiring every call to return its exact sequence value:
// retries and the dedupe window must hide the faults completely, so the
// sweep quantifies the cost of correctness (retries) rather than an
// error rate, which must stay zero.
func FaultToleranceSweep() ([]FaultPoint, error) {
	const calls = 120
	kinds := []string{"drop", "dup", "delay", "corrupt", "mixed"}
	rates := []float64{0.05, 0.15, 0.30}
	var points []FaultPoint
	for ki, kind := range kinds {
		for ri, rate := range rates {
			seed := int64(0xFA17 + 100*ki + ri)
			rig, err := newFaultRig(profileFor(kind, rate, seed), remote.Options{
				Workers:   2,
				RetryMax:  14,
				RetryBase: 100 * time.Microsecond,
			})
			if err != nil {
				return nil, err
			}
			err = runCounterWorkload(rig, calls)
			ist, cst, sst := rig.inj.Stats(), rig.pc.Stats(), rig.ps.Stats()
			if cerr := rig.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, fmt.Errorf("fault sweep %s@%.2f: %w", kind, rate, err)
			}
			points = append(points, FaultPoint{
				Profile:     kind,
				Rate:        rate,
				Calls:       calls,
				SendRetries: cst.SendRetries,
				Injected:    ist.Dropped + ist.Duplicated + ist.Delayed + ist.Corrupted,
				DedupeDrops: sst.DuplicatesDropped,
			})
		}
	}
	return points, nil
}

// runCounterWorkload offloads one counter and runs serial incs, checking
// the exactly-once sequence invariant.
func runCounterWorkload(rig *faultRig, calls int) error {
	th := rig.client.NewThread()
	id, err := th.New("Counter", 4096)
	if err != nil {
		return err
	}
	rig.client.SetRoot("ctr", id)
	if _, _, err := rig.pc.Offload([]string{"Counter"}); err != nil {
		return fmt.Errorf("offload: %w", err)
	}
	for i := 1; i <= calls; i++ {
		ret, err := th.Invoke(id, "inc")
		if err != nil {
			return fmt.Errorf("inc %d: %w", i, err)
		}
		if ret.I != int64(i) {
			return fmt.Errorf("inc %d returned %d: lost or duplicated execution", i, ret.I)
		}
	}
	return nil
}

// RecoveryStudy severs the link hard at a seeded random send and times
// the first call that crosses the failure: from the invoke that finds
// the link dead to its successful local-fallback return. The clock is
// injected so the deterministic-replay lint holds; callers pass
// time.Now.
func RecoveryStudy(now func() time.Time, runs int) (RecoveryStats, error) {
	rng := rand.New(rand.NewSource(0x0A1DE))
	stats := RecoveryStats{Runs: runs}
	var latencies []time.Duration
	for run := 0; run < runs; run++ {
		severAt := 1 + rng.Int63n(40)
		d, recovered, err := recoveryRun(now, severAt)
		if err != nil {
			return RecoveryStats{}, fmt.Errorf("recovery run %d (sever@%d): %w", run, severAt, err)
		}
		if recovered {
			latencies = append(latencies, d)
		}
	}
	stats.Recovered = len(latencies)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
		stats.MinNs = latencies[0]
		stats.MedianNs = latencies[len(latencies)/2]
		stats.MaxNs = latencies[len(latencies)-1]
	}
	return stats, nil
}

// recoveryRun executes one sever iteration and returns the recovery
// latency if the sever landed inside the workload (a sever point beyond
// the run's traffic never fires and yields recovered=false).
func recoveryRun(now func() time.Time, severAt int64) (d time.Duration, recovered bool, err error) {
	rig, err := newFaultRig(faults.Profile{SeverAfter: severAt}, remote.Options{
		Workers:     2,
		RetryMax:    2,
		RetryBase:   50 * time.Microsecond,
		CallTimeout: 2 * time.Second,
	})
	if err != nil {
		return 0, false, err
	}
	defer func() {
		// A second close on an already-severed rig cannot fail harder
		// than the sever the run is about.
		if cerr := rig.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	var mu sync.Mutex
	failovers := 0
	rig.client.SetFailoverHandler(func(idx int, _ vm.Peer) bool {
		mu.Lock()
		defer mu.Unlock()
		failovers++
		rig.client.DetachPeer(idx)
		rig.client.ReclaimStubs(idx)
		return true
	})

	th := rig.client.NewThread()
	id, err := th.New("Counter", 1024)
	if err != nil {
		return 0, false, err
	}
	rig.client.SetRoot("ctr", id)

	start := now()
	if _, _, err := rig.pc.Offload([]string{"Counter"}); err != nil {
		// Severed during migration: the object never left, degradation is
		// immediate, and the "recovery" is the cost of discovering it.
		if _, err := th.Invoke(id, "inc"); err != nil {
			return 0, false, fmt.Errorf("local run after failed offload: %w", err)
		}
		return now().Sub(start), true, nil
	}

	const incs = 30
	prev := int64(0)
	for i := 0; i < incs; i++ {
		mu.Lock()
		before := failovers
		mu.Unlock()
		t0 := now()
		ret, err := th.Invoke(id, "inc")
		if err != nil {
			return 0, false, fmt.Errorf("inc %d: %w", i, err)
		}
		switch {
		case ret.I == prev+1:
		case ret.I == 1:
			// Reclaimed local copy restarted from zero.
		default:
			return 0, false, fmt.Errorf("inc %d returned %d after %d", i, ret.I, prev)
		}
		prev = ret.I
		mu.Lock()
		after := failovers
		mu.Unlock()
		if after > before {
			return now().Sub(t0), true, nil
		}
	}
	return 0, false, nil
}
