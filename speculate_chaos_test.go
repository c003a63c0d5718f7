package aide

import (
	"math/rand"
	"testing"
	"time"

	"aide/internal/faults"
	"aide/internal/remote"
)

// TestSpeculationChaosSevers is the speculation soak: a client with
// speculative execution enabled survives a long seeded sequence of
// degraded links and hard severs — one sever per round — while running
// a non-idempotent cumulative append workload. The invariant checked on
// every successful call is exactly-once execution: the counter may only
// advance by one delta per acknowledged call, plus one delta per
// unacknowledged (errored) call that may or may not have landed, or
// restart from a zeroed reclaim after a disconnect. Any lost, repeated,
// or cross-contaminated execution breaks the arithmetic at the exact
// operation. Every call must also complete within a hard watchdog bound:
// no call may stall.
func TestSpeculationChaosSevers(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 25
	}
	const (
		appends = 5
		delta   = int64(2)
	)
	reg := demoRegistry(t)
	s := NewSurrogate(reg, WithHeap(1<<30))
	client := NewClient(reg,
		WithHeap(1<<20),
		WithSpeculation(),
		WithCallTimeout(20*time.Millisecond),
		WithDisconnectAfter(2),
		WithRetryPolicy(-1, 0), // a dropped frame is a timeout, not a resend
		WithHandoffTimeout(100*time.Millisecond),
	)
	defer func() {
		_ = client.Close()
		_ = s.Close()
	}()

	th := client.Thread()
	doc, err := th.New("Doc", 300<<10)
	if err != nil {
		t.Fatalf("new Doc: %v", err)
	}
	client.VM().SetRoot("doc", doc)

	rng := rand.New(rand.NewSource(7))
	var (
		base      int64 // last acknowledged counter value
		uncertain int64 // errored calls that may have executed remotely
	)
	// step runs one append and checks the exactly-once arithmetic.
	step := func(round, k int) {
		start := time.Now()
		v, err := th.Invoke(doc, "append", Int(delta))
		if d := time.Since(start); d > 5*time.Second {
			t.Fatalf("round %d append %d stalled for %v", round, k, d)
		}
		if err != nil {
			// The call may still execute remotely (a lost reply); widen
			// the window the next success may land in.
			uncertain++
			return
		}
		ok := v.I == delta // a zeroed reclaim restarts the sequence
		for extra := int64(0); extra <= uncertain; extra++ {
			if v.I == base+(1+extra)*delta {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("round %d append %d returned %d (base %d, %d uncertain): lost or duplicated an increment",
				round, k, v.I, base, uncertain)
		}
		base, uncertain = v.I, 0
	}

	for round := 0; round < rounds; round++ {
		ct, st := remote.NewChannelPair()
		inj := faults.Wrap(ct, faults.Profile{
			Seed:     int64(round + 1),
			DropRate: 0.05,
			// Delays past the call timeout are what degrade the link: the
			// request still lands (late) and executes as a straggler while
			// the client times out, arming speculation for the next call.
			DelayRate:  0.12,
			DelayMin:   30 * time.Millisecond,
			DelayMax:   60 * time.Millisecond,
			SeverAfter: int64(15 + rng.Intn(60)),
		})
		s.Serve(st)
		// Attach resets the post-disconnect cooldown from the previous
		// round's sever, so each round gets a fresh offload opportunity.
		if err := client.Attach(inj); err != nil {
			// The handshake itself ate a drop or the sever; the round
			// still runs (locally) and still ends in a sever.
			_ = inj.Sever()
			for k := 1; k <= appends; k++ {
				step(round, k)
			}
			continue
		}
		// Best effort: a failed placement leaves the round local.
		_, _ = client.Offload()
		for k := 1; k <= appends; k++ {
			step(round, k)
		}
		_ = inj.Sever() // this round's sever, if the profile's didn't land
		step(round, appends+1)
	}

	st := client.SpeculationStats()
	if st.LocalWins+st.RemoteWins+st.Misses == 0 {
		t.Error("chaos run never exercised speculation; degraded windows were expected")
	}
	t.Logf("chaos: %d rounds, speculation stats %+v, disconnects %d, final counter %d",
		rounds, st, client.Disconnects(), base)
}
