package aide

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"aide/internal/faults"
	"aide/internal/remote"
)

// TestClientSurvivesSurrogateDisconnect drives the full degradation
// path: offload, hard-sever the link, and verify the application keeps
// running locally — the in-flight placement fails over (and says so on
// WithLogf), offloading pins local for exactly the cooldown, default or
// WithDisconnectCooldown, and a fresh surrogate restores service.
func TestClientSurvivesSurrogateDisconnect(t *testing.T) {
	t.Run("default-cooldown", func(t *testing.T) { surviveDisconnect(t, 3) })
	t.Run("cooldown-5", func(t *testing.T) { surviveDisconnect(t, 5, WithDisconnectCooldown(5)) })
}

func surviveDisconnect(t *testing.T, cooldown int, opts ...Option) {
	reg := demoRegistry(t)
	var logMu sync.Mutex
	var logged []string
	logf := func(format string, args ...any) {
		logMu.Lock()
		logged = append(logged, fmt.Sprintf(format, args...))
		logMu.Unlock()
	}
	client := NewClient(reg, append(opts, WithHeap(1<<20), WithLogf(logf))...)
	surrogate := NewSurrogate(reg)
	defer func() {
		_ = client.Close()
		_ = surrogate.Close()
	}()

	ct, st := remote.NewChannelPair()
	inj := faults.Wrap(ct, faults.Profile{})
	surrogate.Serve(st)
	if err := client.Attach(inj); err != nil {
		t.Fatalf("attach: %v", err)
	}

	th := client.Thread()
	doc, err := th.New("Doc", 300<<10)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	client.VM().SetRoot("doc", doc)
	if _, err := th.Invoke(doc, "append", Int(3)); err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if _, err := client.Offload(); err != nil {
		t.Fatalf("offload: %v", err)
	}
	if v, err := th.Invoke(doc, "append", Int(4)); err != nil || v.I != 7 {
		t.Fatalf("remote invoke: v=%v err=%v, want 7", v, err)
	}

	// The link dies hard. The very next call must return a correct
	// local-fallback result: the stub is reclaimed in place and restarts
	// from zeroed fields.
	if err := inj.Sever(); err != nil {
		t.Fatalf("sever: %v", err)
	}
	v, err := th.Invoke(doc, "append", Int(5))
	if err != nil {
		t.Fatalf("invoke across disconnect must fall back locally: %v", err)
	}
	if v.I != 5 {
		t.Fatalf("local fallback returned %d, want 5 (zeroed reclaimed copy)", v.I)
	}

	if n := client.Surrogates(); n != 0 {
		t.Fatalf("Surrogates() = %d after disconnect, want 0", n)
	}
	if n := client.Disconnects(); n != 1 {
		t.Fatalf("Disconnects() = %d, want 1", n)
	}
	if !client.PinnedLocal() {
		t.Fatal("client must be pinned local right after a disconnect")
	}
	if _, err := client.Offload(); !errors.Is(err, ErrPinnedLocal) {
		t.Fatalf("Offload during cooldown: err = %v, want ErrPinnedLocal", err)
	}
	if len(client.OffloadedClasses()) != 0 {
		t.Fatalf("offloaded classes = %v after disconnect, want none", client.OffloadedClasses())
	}
	logMu.Lock()
	if !slices.Contains(logged, "aide: surrogate 0 disconnected; re-homed 1 stubs") {
		t.Errorf("WithLogf saw %q, not the failover's re-homed line", logged)
	}
	logMu.Unlock()

	// The cooldown ages out with garbage-collection cycles.
	for i := 1; i <= cooldown; i++ {
		if !client.PinnedLocal() {
			t.Fatalf("cooldown of %d GC cycles expired after %d", cooldown, i-1)
		}
		client.VM().Collect()
	}
	if client.PinnedLocal() {
		t.Fatalf("cooldown should have expired after %d GC cycles", cooldown)
	}

	// A fresh surrogate restores full service.
	ct2, st2 := remote.NewChannelPair()
	surrogate.Serve(st2)
	if err := client.Attach(ct2); err != nil {
		t.Fatalf("re-attach: %v", err)
	}
	if n := client.Surrogates(); n != 1 {
		t.Fatalf("Surrogates() = %d after re-attach, want 1", n)
	}
	if err := client.Ping(); err != nil {
		t.Fatalf("ping after re-attach: %v", err)
	}
	if _, err := client.Offload(); err != nil {
		t.Fatalf("offload after re-attach: %v", err)
	}
	if v, err := th.Invoke(doc, "append", Int(2)); err != nil || v.I != 7 {
		t.Fatalf("remote invoke after re-attach: v=%v err=%v, want 7", v, err)
	}
}

// TestHealthProbeDetectsSilentDeath verifies the background prober finds
// a silently half-closed link while the application is idle: probe
// timeouts escalate to a disconnect without any application call.
func TestHealthProbeDetectsSilentDeath(t *testing.T) {
	reg := demoRegistry(t)
	client := NewClient(reg,
		WithHeap(1<<20),
		WithCallTimeout(25*time.Millisecond),
		WithHealthProbe(10*time.Millisecond),
		WithDisconnectAfter(2),
		WithRetryPolicy(-1, 0))
	surrogate := NewSurrogate(reg)
	defer func() {
		_ = client.Close()
		_ = surrogate.Close()
	}()

	ct, st := remote.NewChannelPair()
	inj := faults.Wrap(ct, faults.Profile{})
	surrogate.Serve(st)
	if err := client.Attach(inj); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if err := client.Ping(); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}

	inj.Blackhole() // sends vanish silently; no transport error ever

	deadline := time.Now().Add(5 * time.Second)
	for client.Disconnects() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if client.Disconnects() != 1 {
		t.Fatal("prober never escalated the silent half-close to a disconnect")
	}
	if n := client.Surrogates(); n != 0 {
		t.Fatalf("Surrogates() = %d, want 0 after probe-driven disconnect", n)
	}
	if !client.PinnedLocal() {
		t.Fatal("probe-driven disconnect must pin the client local")
	}
}
