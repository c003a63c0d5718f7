package emulator

import (
	"errors"
	"testing"
	"time"

	"aide/internal/netmodel"
	"aide/internal/policy"
	"aide/internal/trace"
)

// synthTrace builds a trace with a pinned UI class, an offloadable DATA
// class holding most memory, and a MATH stateless-native class. Phases:
// allocate, then rounds of interactions, with DATA weakly coupled to UI.
func synthTrace(rounds int) *trace.Trace {
	tr := &trace.Trace{
		App:          "Synth",
		HeapCapacity: 12 << 20,
		Classes: []trace.ClassInfo{
			{Name: "ui", Pinned: true}, // 0
			{Name: "core"},             // 1
			{Name: "data"},             // 2
			{Name: "math", Pinned: true, Stateless: true}, // 3
			{Name: "arr", Array: true},                    // 4
		},
	}
	var obj trace.ObjectID
	newObj := func(class trace.ClassID, size int64) trace.ObjectID {
		obj++
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindCreate, Callee: class, Obj: obj, Bytes: size})
		return obj
	}
	inv := func(caller, callee trace.ClassID, o trace.ObjectID, bytes int64, self time.Duration, native, stateless bool) {
		tr.Events = append(tr.Events, trace.Event{
			Kind: trace.KindInvoke, Caller: caller, Callee: callee, Obj: o,
			Bytes: bytes, SelfTime: self, Native: native, Stateless: stateless,
		})
	}
	acc := func(caller, callee trace.ClassID, o trace.ObjectID, bytes int64) {
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindAccess, Caller: caller, Callee: callee, Obj: o, Bytes: bytes})
	}

	_ = newObj(0, 8<<10) // the UI object itself
	coreObj := newObj(1, 16<<10)
	var datas []trace.ObjectID
	for i := 0; i < 40; i++ {
		datas = append(datas, newObj(2, 100<<10)) // 4 MB of data
	}
	arrObj := newObj(4, 512<<10)

	for r := 0; r < rounds; r++ {
		for i := 0; i < 200; i++ {
			inv(0, 1, coreObj, 64, 50*time.Microsecond, false, false) // hot ui↔core
		}
		for i := 0; i < 150; i++ {
			inv(2, 2, datas[r%len(datas)], 32, 30*time.Microsecond, false, false) // data internal
		}
		inv(1, 2, datas[r%len(datas)], 128, 40*time.Microsecond, false, false) // light core→data
		inv(2, 3, trace.NoObject, 16, 5*time.Microsecond, true, true)          // data→math native
		acc(1, 4, arrObj, 64)                                                  // core reads array
		acc(2, 4, arrObj, 32)
		acc(2, 4, arrObj, 32) // data touches array more often
		// Churn: transient garbage.
		g := newObj(1, 64<<10)
		tr.Events = append(tr.Events, trace.Event{Kind: trace.KindDelete, Callee: 1, Obj: g, Bytes: 64 << 10})
	}
	return tr
}

func memCfg(heap int64) Config {
	return Config{
		Mode:         MemoryMode,
		HeapCapacity: heap,
		Link:         netmodel.WaveLAN(),
		Params:       policy.Params{TriggerFreeFraction: 0.15, Tolerance: 1, MinFreeFraction: 0.20},
	}
}

func TestOriginalRunsWithoutOffload(t *testing.T) {
	tr := synthTrace(50)
	cfg := memCfg(32 << 20)
	cfg.DisableOffload = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloaded || res.OOM || res.CommTime != 0 || res.TransferTime != 0 {
		t.Fatalf("original run polluted: %+v", res)
	}
	if res.ExecTime != tr.TotalSelfTime() {
		t.Fatalf("exec = %v, want ΣSelfTime %v", res.ExecTime, tr.TotalSelfTime())
	}
}

func TestOOMWithoutOffload(t *testing.T) {
	tr := synthTrace(50)
	cfg := memCfg(2 << 20) // data alone exceeds the heap
	cfg.DisableOffload = true
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OOM {
		t.Fatal("constrained original run must die")
	}
	if _, err := RunOriginal(tr, cfg); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("RunOriginal err = %v", err)
	}
}

func TestMemoryOffloadRescues(t *testing.T) {
	tr := synthTrace(50)
	res, err := Run(tr, memCfg(5<<20)) // 4MB data + churn on 5MB heap
	if err != nil {
		t.Fatal(err)
	}
	if res.OOM {
		t.Fatalf("offloading failed to rescue: %+v", res)
	}
	if !res.Offloaded {
		t.Fatal("no partitioning happened")
	}
	var moved int64
	offloadedData := false
	for _, p := range res.Partitions {
		moved += p.TransferBytes
		for _, c := range p.OffloadedClasses {
			if c == "data" {
				offloadedData = true
			}
			if c == "ui" || c == "math" {
				t.Fatalf("pinned class offloaded: %v", p.OffloadedClasses)
			}
		}
	}
	if !offloadedData || moved == 0 {
		t.Fatalf("data cluster not offloaded: %+v", res.Partitions)
	}
	if res.CommTime <= 0 || res.RemoteInvocations == 0 {
		t.Fatal("post-offload remote interactions missing")
	}
	if res.TransferTime <= 0 {
		t.Fatal("offload transfer not charged")
	}
	if res.Time != res.ExecTime+res.CommTime+res.TransferTime+res.MonitorTime {
		t.Fatal("time decomposition inconsistent")
	}
}

func TestOverheadOrderingAcrossLinkQuality(t *testing.T) {
	tr := synthTrace(50)
	orig, err := RunOriginal(tr, memCfg(32<<20))
	if err != nil {
		t.Fatal(err)
	}
	fast := memCfg(5 << 20)
	fast.Link = netmodel.Link{BandwidthBps: 100e6, RTT: 200 * time.Microsecond, HeaderBytes: 32}
	slow := memCfg(5 << 20)
	slow.Link = netmodel.Link{BandwidthBps: 1e6, RTT: 20 * time.Millisecond, HeaderBytes: 32}
	fr, err := Run(tr, fast)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := Run(tr, slow)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Offloaded || !sr.Offloaded {
		t.Fatal("both runs must offload")
	}
	if fr.Overhead(orig.Time) >= sr.Overhead(orig.Time) {
		t.Fatalf("overhead must grow with a worse link: %v vs %v",
			fr.Overhead(orig.Time), sr.Overhead(orig.Time))
	}
}

func TestMonitoringCostCharged(t *testing.T) {
	tr := synthTrace(20)
	base := memCfg(32 << 20)
	base.DisableOffload = true
	off, err := Run(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	base.MonitorCostPerEvent = 2 * time.Microsecond
	on, err := Run(tr, base)
	if err != nil {
		t.Fatal(err)
	}
	wantExtra := time.Duration(on.Events) * 2 * time.Microsecond
	if on.Time-off.Time != wantExtra {
		t.Fatalf("monitor charge = %v, want %v", on.Time-off.Time, wantExtra)
	}
}

func TestClientSlowdownScalesExec(t *testing.T) {
	tr := synthTrace(20)
	cfg := memCfg(32 << 20)
	cfg.DisableOffload = true
	cfg.ClientSlowdown = 10
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExecTime != 10*tr.TotalSelfTime() {
		t.Fatalf("exec = %v, want 10×", res.ExecTime)
	}
}

func TestCPUModeBeneficialOffload(t *testing.T) {
	tr := cpuTrace(40, 4, 50*time.Millisecond)
	cfg := Config{
		Mode:             CPUMode,
		HeapCapacity:     32 << 20,
		Link:             netmodel.WaveLAN(),
		SurrogateSpeedup: 3.5,
		ReevalEvery:      2 * time.Second,
	}
	origCfg := cfg
	origCfg.DisableOffload = true
	orig, err := Run(tr, origCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Offloaded {
		t.Fatalf("beneficial compute offload declined: %+v", res.Partitions)
	}
	if res.Time >= orig.Time {
		t.Fatalf("offloaded %v not faster than original %v", res.Time, orig.Time)
	}
}

func TestCPUModeDeclinesChattyWorkload(t *testing.T) {
	tr := cpuTrace(40, 3000, 50*time.Microsecond) // tiny work, heavy chatter
	cfg := Config{
		Mode:             CPUMode,
		HeapCapacity:     32 << 20,
		Link:             netmodel.WaveLAN(),
		SurrogateSpeedup: 3.5,
		ReevalEvery:      time.Second,
	}
	res, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Offloaded {
		t.Fatalf("chatty workload should not offload: %+v", res.Partitions)
	}
	rejected := false
	for _, p := range res.Partitions {
		if p.Rejected {
			rejected = true
		}
	}
	if !rejected {
		t.Fatal("expected recorded rejected partitioning attempts")
	}
}

// cpuTrace: pinned UI calling compute; compute talks to UI `chatter` times
// per round with `work` self time per compute call.
func cpuTrace(rounds, chatter int, work time.Duration) *trace.Trace {
	tr := &trace.Trace{
		App:          "CPU",
		HeapCapacity: 32 << 20,
		Classes: []trace.ClassInfo{
			{Name: "ui", Pinned: true},
			{Name: "compute"},
		},
	}
	tr.Events = append(tr.Events, trace.Event{Kind: trace.KindCreate, Callee: 1, Obj: 1, Bytes: 1 << 20})
	for r := 0; r < rounds; r++ {
		for i := 0; i < 10; i++ {
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.KindInvoke, Caller: 1, Callee: 1, Obj: 1,
				Bytes: 16, SelfTime: work,
			})
		}
		for i := 0; i < chatter; i++ {
			tr.Events = append(tr.Events, trace.Event{
				Kind: trace.KindInvoke, Caller: 0, Callee: 1, Obj: 1,
				Bytes: 32, SelfTime: 10 * time.Microsecond,
			})
		}
	}
	return tr
}

func TestStatelessNativeEnhancementRemovesRouting(t *testing.T) {
	tr := synthTrace(50)
	plain := memCfg(5 << 20)
	res1, err := Run(tr, plain)
	if err != nil {
		t.Fatal(err)
	}
	enhanced := plain
	enhanced.StatelessNativeLocal = true
	res2, err := Run(tr, enhanced)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Offloaded || !res2.Offloaded {
		t.Fatal("both must offload")
	}
	if res2.RemoteNative >= res1.RemoteNative {
		t.Fatalf("stateless enhancement must cut remote natives: %d vs %d",
			res2.RemoteNative, res1.RemoteNative)
	}
}

func TestArrayGranularityFollowsDominantUser(t *testing.T) {
	// arr is touched 2× more by data (offloaded) than core (client):
	// object-granularity placement must move it with data, reducing
	// remote accesses versus class-granularity (where the class's single
	// placement strands one side).
	tr := synthTrace(50)
	plain := memCfg(5 << 20)
	r1, err := Run(tr, plain)
	if err != nil {
		t.Fatal(err)
	}
	arrCfg := plain
	arrCfg.ArrayGranularity = true
	r2, err := Run(tr, arrCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Offloaded || !r2.Offloaded {
		t.Fatal("both must offload")
	}
	if r2.CommTime > r1.CommTime {
		t.Fatalf("array granularity should not increase communication: %v vs %v",
			r2.CommTime, r1.CommTime)
	}
}

func TestValidationErrors(t *testing.T) {
	tr := synthTrace(5)
	cfg := memCfg(5 << 20)
	cfg.Link = netmodel.Link{} // invalid
	if _, err := Run(tr, cfg); err == nil {
		t.Fatal("invalid link accepted")
	}
	bad := &trace.Trace{Classes: []trace.ClassInfo{{Name: "x"}},
		Events: []trace.Event{{Kind: trace.KindInvoke, Callee: 9}}}
	if _, err := Run(bad, memCfg(5<<20)); err == nil {
		t.Fatal("invalid trace accepted")
	}
}

// sampleTrace is the trace package's validation sample: two creates, a
// delete, calls, an access and a GC report.
func sampleTrace() *trace.Trace {
	return &trace.Trace{
		App:          "Sample",
		HeapCapacity: 1 << 20,
		Classes: []trace.ClassInfo{
			{Name: "ui", Pinned: true},
			{Name: "doc"},
			{Name: "arr", Array: true},
			{Name: "math", Pinned: true, Stateless: true},
		},
		Events: []trace.Event{
			{Kind: trace.KindCreate, Callee: 1, Obj: 1, Bytes: 100},
			{Kind: trace.KindInvoke, Caller: 0, Callee: 1, Obj: 1, Bytes: 24, SelfTime: time.Millisecond},
			{Kind: trace.KindCreate, Callee: 2, Obj: 2, Bytes: 4096},
			{Kind: trace.KindAccess, Caller: 1, Callee: 2, Obj: 2, Bytes: 64},
			{Kind: trace.KindInvoke, Caller: 1, Callee: 3, Obj: trace.NoObject, Bytes: 16, SelfTime: time.Millisecond, Native: true, Stateless: true},
			{Kind: trace.KindDelete, Callee: 2, Obj: 2, Bytes: 4096},
			{Kind: trace.KindGC, Free: 1 << 19, Capacity: 1 << 20, Freed: true},
		},
	}
}

// TestRunRejectsWhatValidateRejects: Run checks the trace as it replays
// it, with the rules Validate applies, and must refuse every corruption
// Validate refuses with Validate's own error — the trace package's
// corruptions, a negative GC capacity and a zero kind among them, and a
// corruption after the point where a run without offloading dies of
// memory exhaustion.
func TestRunRejectsWhatValidateRejects(t *testing.T) {
	corruptions := []func(*trace.Trace){
		func(tr *trace.Trace) { tr.Events[1].Callee = 99 },                   // class out of range
		func(tr *trace.Trace) { tr.Events[3].Caller = -1 },                   // negative class
		func(tr *trace.Trace) { tr.Events[1].Bytes = -1 },                    // negative bytes
		func(tr *trace.Trace) { tr.Events[0].Obj = 2; tr.Events[2].Obj = 2 }, // double create
		func(tr *trace.Trace) { tr.Events[5].Obj = 77 },                      // delete unknown
		func(tr *trace.Trace) { tr.Events[5].Callee = 1 },                    // delete wrong class
		func(tr *trace.Trace) { tr.Events[6].Free = -1 },                     // negative GC
		func(tr *trace.Trace) { tr.Events[6].Capacity = -1 },                 // negative GC capacity
		func(tr *trace.Trace) { tr.Events[3].Kind = trace.EventKind(42) },    // unknown kind
		func(tr *trace.Trace) { tr.Events[6].Kind = 0 },                      // zero kind
		func(tr *trace.Trace) { tr.Events[0].Bytes = -5 },                    // negative size
		func(tr *trace.Trace) { tr.Events[2].Callee = 4 },                    // create out of range
	}
	configs := map[string]Config{
		"memory":   memCfg(1 << 20),
		"original": {Mode: MemoryMode, HeapCapacity: 1 << 20, Link: netmodel.WaveLAN(), DisableOffload: true},
		"cpu":      {Mode: CPUMode, Link: netmodel.WaveLAN(), SurrogateSpeedup: 3.5, ReevalEvery: time.Millisecond},
	}
	for i, corrupt := range corruptions {
		tr := sampleTrace()
		corrupt(tr)
		want := tr.Validate()
		if want == nil {
			t.Fatalf("case %d: Validate accepts the corruption", i)
		}
		for name, cfg := range configs {
			if _, err := Run(tr, cfg); err == nil || err.Error() != want.Error() {
				t.Errorf("case %d, %s: Run returned %v, want %q", i, name, err, want)
			}
		}
	}

	// The 4096-byte create does not fit a 2 KB heap: the original run dies
	// there, before the corrupted delete.
	tr := sampleTrace()
	cfg := Config{Mode: MemoryMode, HeapCapacity: 2 << 10, Link: netmodel.WaveLAN(), DisableOffload: true}
	if res, err := Run(tr, cfg); err != nil || !res.OOM || res.OOMEvent != 2 {
		t.Fatalf("clean trace: %+v, %v; want an out-of-memory abort at event 2", res, err)
	}
	tr.Events[5].Obj = 77
	want := tr.Validate()
	if _, err := Run(tr, cfg); err == nil || err.Error() != want.Error() {
		t.Errorf("corruption after the abort: Run returned %v, want %q", err, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	tr := synthTrace(30)
	cfg := memCfg(5 << 20)
	a, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.RemoteInvocations != b.RemoteInvocations || a.GCCycles != b.GCCycles {
		t.Fatalf("replay nondeterministic: %+v vs %+v", a, b)
	}
}
