package aide

import (
	"testing"
	"time"

	"aide/internal/apps"
)

// counters reads the summed counter families of a telemetry registry.
func counters(reg *TelemetryRegistry) map[string]int64 {
	out := make(map[string]int64)
	for _, f := range reg.Snapshot().Families {
		out[f.Name] = f.Value
	}
	return out
}

// TestMutualRecursionDeeperThanWorkersTCP is internal/remote's test of the
// same name over the deployed path: loopback TCP into an aide.Surrogate
// session, gate and all, two workers a side, sixty-four frames deep.
func TestMutualRecursionDeeperThanWorkersTCP(t *testing.T) {
	const depth = 64
	reg := NewRegistry()
	bounce := func(th *Thread, self ObjectID, args []Value) (Value, error) {
		if args[1].I == 0 {
			return Int(0), nil
		}
		ret, err := th.Invoke(args[0].Ref, "bounce", RefOf(self), Int(args[1].I-1))
		if err != nil {
			return Nil(), err
		}
		return Int(ret.I + 1), nil
	}
	for _, name := range []string{"Here", "There"} {
		mustRegister(t, reg, ClassSpec{Name: name, Methods: []MethodSpec{{Name: "bounce", Body: bounce}}})
	}
	sur := NewSurrogate(reg, WithWorkers(2))
	addr, err := sur.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(reg, WithWorkers(2), WithoutMonitoring())
	t.Cleanup(func() { _ = client.Close(); _ = sur.Close() })
	if err := client.AttachTCP(addr); err != nil {
		t.Fatal(err)
	}
	th := client.Thread()
	here, err := th.New("Here", 64)
	if err != nil {
		t.Fatal(err)
	}
	there, err := th.New("There", 64)
	if err != nil {
		t.Fatal(err)
	}
	client.VM().SetRoot("here", here)
	client.VM().SetRoot("there", there)
	if _, _, err := client.slots.at(0).Offload([]string{"There"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ret, err := th.Invoke(there, "bounce", RefOf(here), Int(depth))
		if err != nil || ret.I != depth {
			t.Errorf("bounce(%d) = %v, %v; want %d", depth, ret, err, depth)
		}
	}()
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("mutual recursion deeper than the worker pools hangs")
	}
}

// TestInlineServeJavaNoteCounts runs JavaNote live at the paper's 6 MiB
// heap over TCP and counts its round trips by who carried them: the calls
// the client makes are the benchmark's client.remote_calls_per_javanote,
// and every request the surrogate sends back in the course of them — the
// callbacks nested in the client's calls — is served by the client thread
// that was blocked on the surrogate, none by the client's pool.
func TestInlineServeJavaNoteCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full JavaNote scenario is slow")
	}
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		t.Fatal(err)
	}
	reg, driver, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	creg, sreg := NewTelemetry(), NewTelemetry()
	sur := NewSurrogate(reg, WithHeap(256<<20), WithCPUSpeed(3.5), WithTelemetry(sreg, nil))
	addr, err := sur.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(reg, WithHeap(spec.EmuHeap), WithTelemetry(creg, nil))
	t.Cleanup(func() { _ = client.Close(); _ = sur.Close() })
	if err := client.AttachTCP(addr); err != nil {
		t.Fatal(err)
	}
	if err := driver(client.Thread()); err != nil {
		t.Fatal(err)
	}
	c, s := counters(creg), counters(sreg)
	const (
		sent, served = "aide_remote_requests_sent_total", "aide_remote_requests_served_total"
		self, inline = "aide_remote_self_reads_total", "aide_remote_inline_serves_total"
		yields       = "aide_remote_reader_yields_total"
		spills       = "aide_remote_queue_spills_total"
	)
	if c[sent] != 3746 || s[sent] != 3520 {
		t.Errorf("round trips: client made %d calls, surrogate %d callbacks; want 3746 and 3520", c[sent], s[sent])
	}
	if c[inline] != s[sent] || c[served] != s[sent] {
		t.Errorf("client served %d requests, %d of them in place; want all %d callbacks in place", c[served], c[inline], s[sent])
	}
	if s[self] != s[sent] {
		t.Errorf("surrogate read %d of the %d replies to its callbacks on the calling goroutine", s[self], s[sent])
	}
	// The client's first calls leave the receiver in place (aloneCalls);
	// the session's attach and its one migration are the surrogate's pool
	// work, and everything else it serves (calls and release batches) it
	// serves in place.
	if c[self] < c[sent]-16 || s[served]-s[inline] != 2 {
		t.Errorf("client read %d of its %d replies itself; surrogate served %d of %d requests in place, want all but 2", c[self], c[sent], s[inline], s[served])
	}
	if c[yields] > 8 || s[yields] != 0 || c[spills]+s[spills] != 0 {
		t.Errorf("receiver yields %d/%d, queue spills %d/%d; want a handful on the client, nothing else", c[yields], s[yields], c[spills], s[spills])
	}
}
