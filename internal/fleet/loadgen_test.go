package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"aide"
)

// newTestFleet builds n in-process surrogates sharing one workload
// registry and returns them with a coordinator. The caller owns Close.
func newTestFleet(t *testing.T, n int, opts ...aide.Option) (*Coordinator, []*aide.Surrogate) {
	t.Helper()
	reg, err := WorkloadRegistry()
	if err != nil {
		t.Fatalf("workload registry: %v", err)
	}
	surrogates := make([]*aide.Surrogate, n)
	targets := make([]Target, n)
	for i := range surrogates {
		surrogates[i] = aide.NewSurrogate(reg, append([]aide.Option{aide.WithHeap(64 << 20)}, opts...)...)
		targets[i] = &LocalTarget{TargetName: string(rune('a' + i)), Surrogate: surrogates[i]}
	}
	t.Cleanup(func() {
		for _, s := range surrogates {
			if err := s.Close(); err != nil {
				t.Errorf("close surrogate: %v", err)
			}
		}
	})
	return New(targets...), surrogates
}

func workloadReg(t *testing.T) *aide.Registry {
	t.Helper()
	reg, err := WorkloadRegistry()
	if err != nil {
		t.Fatalf("workload registry: %v", err)
	}
	return reg
}

// TestLoadgenSingleSurrogate is the ISSUE's headline isolation claim: one
// surrogate sustains >= 100 concurrent tenant sessions with zero
// cross-tenant failures. Every session writes a session-unique balance,
// hammers it remotely, and reads it back; any bleed between tenant heaps
// shows up as a balance mismatch.
func TestLoadgenSingleSurrogate(t *testing.T) {
	coord, surrogates := newTestFleet(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, coord, workloadReg(t), Config{
		Sessions:        120,
		Concurrency:     120, // all sessions genuinely in flight at once
		Ops:             4,
		BytesPerSession: 8 << 10,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.CrossTenantFailures != 0 {
		t.Fatalf("cross-tenant failures = %d, want 0", r.CrossTenantFailures)
	}
	if r.Completed != 120 || r.Failed != 0 || r.Unplaced != 0 {
		t.Fatalf("completed/failed/unplaced = %d/%d/%d, want 120/0/0", r.Completed, r.Failed, r.Unplaced)
	}
	if r.Rejected != 0 || r.Shed != 0 {
		t.Fatalf("rejected/shed = %d/%d, want 0/0 (no caps configured)", r.Rejected, r.Shed)
	}
	stats := surrogates[0].Stats()
	if stats.Admitted != 120 {
		t.Fatalf("surrogate admitted = %d, want 120", stats.Admitted)
	}
	// Session reaping is asynchronous (the surrogate observes the peer
	// drop after the client's Close returns), so give it a moment.
	deadline := time.Now().Add(5 * time.Second)
	for surrogates[0].Sessions() != 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := surrogates[0].Sessions(); got != 0 {
		t.Fatalf("sessions still attached after run = %d, want 0", got)
	}
	if r.SessionP50 <= 0 || r.SessionP99 < r.SessionP50 {
		t.Fatalf("implausible session percentiles: p50=%v p99=%v", r.SessionP50, r.SessionP99)
	}
	if r.OpP50 <= 0 || r.OpP99 < r.OpP50 {
		t.Fatalf("implausible op percentiles: p50=%v p99=%v", r.OpP50, r.OpP99)
	}
}

// TestLoadgenSpreadsFleet verifies placement actually spreads load: with
// two equal surrogates the pending-load ranking must not dogpile one.
func TestLoadgenSpreadsFleet(t *testing.T) {
	coord, _ := newTestFleet(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	r, err := Run(ctx, coord, workloadReg(t), Config{
		Sessions:        64,
		Concurrency:     16,
		Ops:             2,
		BytesPerSession: 8 << 10,
		RefreshEvery:    16,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Completed != 64 || r.CrossTenantFailures != 0 {
		t.Fatalf("completed = %d (cross-tenant %d), want 64 (0)", r.Completed, r.CrossTenantFailures)
	}
	for _, name := range []string{"a", "b"} {
		if r.Placed[name] == 0 {
			t.Fatalf("surrogate %q received no sessions: placement dogpiled (%v)", name, r.Placed)
		}
	}
}

// TestLoadgenAdmissionFeedback caps one surrogate and leaves the other
// open: the capped one must refuse with the typed admission error
// (client-visible, counted in the report) and every session must still
// land on the open surrogate.
func TestLoadgenAdmissionFeedback(t *testing.T) {
	reg := workloadReg(t)
	capped := aide.NewSurrogate(reg, aide.WithHeap(64<<20), aide.WithMaxSessions(2))
	open := aide.NewSurrogate(reg, aide.WithHeap(64<<20))
	t.Cleanup(func() {
		for _, s := range []*aide.Surrogate{capped, open} {
			if err := s.Close(); err != nil {
				t.Errorf("close surrogate: %v", err)
			}
		}
	})
	cappedTarget := &LocalTarget{TargetName: "capped", Surrogate: capped}
	coord := New(
		// The capped surrogate wins every RTT bucket comparison, so the
		// coordinator keeps preferring it until admission pushes back.
		cappedTarget,
		&LocalTarget{TargetName: "open", Surrogate: open, SyntheticRTT: 5 * time.Millisecond},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	// Two tenants hold both of the capped surrogate's slots for the whole
	// run, so its refusal does not depend on three of the run's short
	// sessions overlapping (5 runs in 200 saw none overlap).
	for i := 0; i < 2; i++ {
		tr, err := cappedTarget.Dial(ctx)
		if err != nil {
			t.Fatalf("dial capped: %v", err)
		}
		holder := aide.NewClient(reg, aide.WithHeap(1<<20))
		if err := holder.AttachContext(ctx, tr); err != nil {
			t.Fatalf("holder %d: %v", i, err)
		}
		t.Cleanup(func() { _ = holder.Close() })
	}
	r, err := Run(ctx, coord, reg, Config{
		Sessions:        32,
		Concurrency:     16,
		Ops:             2,
		BytesPerSession: 8 << 10,
		RefreshEvery:    1 << 30, // never: keep the bench sticky for the whole run
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if r.Completed != 32 || r.CrossTenantFailures != 0 {
		t.Fatalf("completed = %d (cross-tenant %d), want 32 (0)", r.Completed, r.CrossTenantFailures)
	}
	if r.Rejected == 0 {
		t.Fatal("capped surrogate never rejected: admission control untested")
	}
	if got := capped.Stats().Rejected; got == 0 {
		t.Fatal("surrogate-side rejection counter is zero despite client-side rejections")
	}
	if r.Placed["open"] == 0 {
		t.Fatalf("open surrogate received no sessions (%v)", r.Placed)
	}
	if r.Placed["capped"] != 0 {
		t.Fatalf("capped surrogate, both slots held, took %d sessions", r.Placed["capped"])
	}
}

// TestLoadgenShedAndEvict degrades a surrogate mid-run via its health
// check: new sessions must see the typed shed error and, with
// evict-on-degraded set, live sessions are deterministically evicted and
// counted surrogate-side.
func TestLoadgenShedAndEvict(t *testing.T) {
	reg := workloadReg(t)
	var degraded atomic.Bool
	sick := aide.NewSurrogate(reg,
		aide.WithHeap(64<<20),
		aide.WithHealthCheck(func() error {
			if degraded.Load() {
				return context.DeadlineExceeded // any non-nil error means degraded
			}
			return nil
		}),
	)
	backup := aide.NewSurrogate(reg, aide.WithHeap(64<<20))
	t.Cleanup(func() {
		for _, s := range []*aide.Surrogate{sick, backup} {
			if err := s.Close(); err != nil {
				t.Errorf("close surrogate: %v", err)
			}
		}
	})
	coord := New(
		&LocalTarget{TargetName: "sick", Surrogate: sick},
		&LocalTarget{TargetName: "backup", Surrogate: backup, SyntheticRTT: 5 * time.Millisecond},
	)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Warm-up: a healthy run seeds sessions onto "sick" (preferred RTT).
	r1, err := Run(ctx, coord, reg, Config{Sessions: 8, Concurrency: 4, Ops: 2, BytesPerSession: 8 << 10, Logf: t.Logf})
	if err != nil || r1.Completed != 8 {
		t.Fatalf("healthy run: completed=%d err=%v", r1.Completed, err)
	}

	degraded.Store(true)
	r2, err := Run(ctx, coord, reg, Config{
		Sessions: 8, Concurrency: 4, Ops: 2, BytesPerSession: 8 << 10,
		RefreshEvery: 1 << 30,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	if r2.Completed != 8 || r2.CrossTenantFailures != 0 {
		t.Fatalf("degraded run completed = %d (cross-tenant %d), want 8 (0)", r2.Completed, r2.CrossTenantFailures)
	}
	if r2.Shed == 0 {
		t.Fatal("degraded surrogate never shed: health-based load shedding untested")
	}
	if r2.Placed["sick"] != 0 {
		t.Fatalf("degraded surrogate still completed %d sessions", r2.Placed["sick"])
	}
	if got := sick.Stats().Shed; got == 0 {
		t.Fatal("surrogate-side shed counter is zero despite client-side sheds")
	}
}
