package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aide/internal/apps"
	"aide/internal/emulator"
	"aide/internal/experiments"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/netmodel"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/snapshot"
	"aide/internal/trace"
	"aide/internal/vm"
)

// Probes of the layers that need no connection: vm, snapshot, monitor,
// graph, mincut, policy, codec, emulator.

// counterRegistry is the smallest application: one class whose method
// reads and writes one field.
func counterRegistry() (*vm.Registry, error) {
	reg := vm.NewRegistry()
	_, err := reg.Register(vm.ClassSpec{
		Name:   "C",
		Fields: []string{"n"},
		Methods: []vm.MethodSpec{{
			Name: "inc",
			Body: func(th *vm.Thread, self vm.ObjectID, _ []vm.Value) (vm.Value, error) {
				v, err := th.GetField(self, "n")
				if err != nil {
					return vm.Nil(), err
				}
				return vm.Nil(), th.SetField(self, "n", vm.Int(v.I+1))
			},
		}},
	})
	return reg, err
}

// runJavaNote runs the JavaNote driver to completion on a fresh VM at
// its recording heap, bare or with a monitor's hooks installed.
func runJavaNote(monitored bool) (*vm.VM, time.Duration, error) {
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, 0, err
	}
	reg, driver, err := spec.Build()
	if err != nil {
		return nil, 0, err
	}
	v := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: spec.RecordHeap})
	if monitored {
		v.SetHooks(monitor.New(monitor.RegistryMeta(reg)))
	}
	t0 := time.Now()
	err = driver(v.NewThread())
	return v, time.Since(t0), err
}

func (p *prober) vmAndSnapshot(ctx context.Context) error {
	reg, err := counterRegistry()
	if err != nil {
		return err
	}
	v := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 64 << 20})
	th := v.NewThread()
	id, err := th.New("C", 64)
	if err != nil {
		return err
	}
	v.SetRoot("c", id)
	invoke := func() error { _, err := th.Invoke(id, "inc"); return err }
	if err := p.measure(ctx, "vm.invoke_local_ns", 1, 1000, invoke); err != nil {
		return err
	}
	allocs, _, err := allocsPer(2000, invoke)
	if err != nil {
		return err
	}
	p.rc.layerCount("vm.allocs_per_invoke", allocs)
	if err := p.measure(ctx, "vm.new_ns", 1, 500, func() error {
		_, err := th.New("C", 64)
		th.ClearTemps()
		return err
	}); err != nil {
		return err
	}

	// The JavaNote driver on a bare VM: what the interpreter alone costs.
	var plain []float64
	var loaded *vm.VM
	for i := 0; i < p.appRuns(); i++ {
		sid := p.tk.begin("vm.app_plain_ms")
		lv, d, err := runJavaNote(false)
		p.tk.end(sid)
		if err != nil {
			return fmt.Errorf("bare JavaNote: %w", err)
		}
		loaded = lv
		plain = append(plain, float64(d)/nsPerMs)
	}
	p.rc.layerSamples("vm.app_plain_ms", plain)
	p.plainAppMs = median(plain)
	if err := p.measure(ctx, "vm.collect_us", nsPerUs, 1, func() error { loaded.Collect(); return nil }); err != nil {
		return err
	}

	// snapshot: image of the loaded JavaNote VM.
	var img []byte
	if err := p.measure(ctx, "snapshot.encode_us", nsPerUs, 1, func() error {
		img = snapshot.Snapshot(loaded).Encode()
		return nil
	}); err != nil {
		return err
	}
	if err := p.measure(ctx, "snapshot.decode_us", nsPerUs, 1, func() error {
		_, err := snapshot.Decode(img)
		return err
	}); err != nil {
		return err
	}
	objects := loaded.Heap().Objects
	if objects == 0 {
		return fmt.Errorf("loaded JavaNote VM holds no objects")
	}
	p.exact("snapshot.bytes_per_object", float64(len(img))/float64(objects))
	return nil
}

func (p *prober) monitorAndGraph(ctx context.Context) error {
	tr, err := p.ts.suite.Trace("JavaNote")
	if err != nil {
		return err
	}
	events := float64(len(tr.Events))

	// One source, then two concurrent sources on halves of the trace:
	// the case the monitor's stripes exist for.
	var one, two []float64
	var m *monitor.Monitor
	for i := 0; i < p.appRuns(); i++ {
		m = monitor.New(nil)
		sid := p.tk.begin("monitor.event_ns")
		t0 := time.Now()
		feedTrace(m, tr)
		one = append(one, float64(time.Since(t0))/events)
		p.tk.end(sid)

		m2 := monitor.New(nil)
		half := len(tr.Events) / 2
		var wg sync.WaitGroup
		sid = p.tk.begin("monitor.event_ns_2src")
		t0 = time.Now()
		for _, part := range [][]trace.Event{tr.Events[:half], tr.Events[half:]} {
			wg.Add(1)
			go func(evs []trace.Event) {
				defer wg.Done()
				for j := range evs {
					m2.Feed(tr, &evs[j])
				}
			}(part)
		}
		wg.Wait()
		two = append(two, float64(time.Since(t0))/events)
		p.tk.end(sid)
	}
	p.rc.layerSamples("monitor.event_ns", one)
	p.rc.layerSamples("monitor.event_ns_2src", two)
	p.exact("monitor.events_total", float64(m.Events()))

	// The JavaNote driver on a monitored VM, against the bare runs.
	var over []float64
	for i := 0; i < p.appRuns(); i++ {
		sid := p.tk.begin("monitor.app_monitored")
		_, d, err := runJavaNote(true)
		p.tk.end(sid)
		if err != nil {
			return fmt.Errorf("monitored JavaNote: %w", err)
		}
		over = append(over, float64(d)/nsPerMs-p.plainAppMs)
	}
	p.rc.layerSamples("monitor.app_overhead_ms", over)

	// graph: clone, and a delta pull after 5% of the edges were touched.
	g := m.Graph()
	if err := p.measure(ctx, "graph.clone_us", nsPerUs, 10, func() error { _ = g.Clone(); return nil }); err != nil {
		return err
	}
	edges := g.Edges()
	rng := rand.New(rand.NewSource(1))
	epoch := g.Delta(0).Epoch
	var deltaUs []float64
	if err := p.rc.until(ctx, p.budget(), 3, func(int) error {
		for t := 0; t < len(edges)/20+1; t++ {
			e := edges[rng.Intn(len(edges))]
			g.AddInvocation(e.A, e.B, 128)
		}
		sid := p.tk.begin("graph.delta_us")
		t0 := time.Now()
		d := g.Delta(epoch)
		deltaUs = append(deltaUs, float64(time.Since(t0))/nsPerUs)
		p.tk.end(sid)
		epoch = d.Epoch
		return nil
	}); err != nil {
		return err
	}
	p.rc.layerSamples("graph.delta_us", deltaUs)
	return nil
}

// partitioning decomposes one repartition of each front-end by making
// the stage calls one at a time (partitioner.fromScratch/incremental)
// and reading the stages back from their spans.
func (p *prober) partitioning(ctx context.Context) error {
	jn, err := javaNotePartitioner(p.ts)
	if err != nil {
		return err
	}
	g := jn.mon.Graph()
	cands, err := mincut.Candidates(mincut.FromGraph(g, graph.BytesWeight))
	if err != nil {
		return err
	}
	p.exact("mincut.candidates_count", float64(len(cands)))

	rng := rand.New(rand.NewSource(1))
	if _, _, err := jn.round(p.tk, rng); err != nil { // primes both pipelines
		return err
	}
	from := len(p.tk.spans)
	if _, _, err := jn.roundsFor(ctx, p.rc, p.tk, rng, 4*p.budget(), 8, "javanote probe"); err != nil {
		return err
	}
	for metric, span := range map[string]string{
		"monitor.graph_snapshot_us": "monitor.graph",
		"monitor.delta_us":          "monitor.delta",
		"mincut.fromgraph_us":       "mincut.fromgraph",
		"mincut.candidates_us":      "mincut.candidates",
		"mincut.inc_update_us":      "mincut.inc_update",
		"mincut.inc_candidates_us":  "mincut.inc_candidates",
		"policy.choose_us":          "policy.choose",
		"policy.choose_dense_us":    "policy.choose_dense",
	} {
		p.rc.layerSamples(metric, p.spanUs(span, from))
	}
	p.rc.layerCount("mincut.inc_warm_frac", float64(jn.warm)/float64(jn.warm+jn.full))
	p.rc.layerCount("policy.rejected_frac", float64(jn.rejected)/float64(jn.rounds))
	allocs, _, err := allocsPer(20, func() error { _, err := jn.fromScratch(nil); return err })
	if err != nil {
		return err
	}
	p.rc.layerCount("mincut.allocs_per_repartition", allocs)

	cpu := policy.CPUPolicy{Speedup: 3.5, ClientSlowdown: experiments.MemoryClientSlowdown, Link: netmodel.WaveLAN()}
	if err := p.measure(ctx, "policy.cpu_choose_us", nsPerUs, 1, func() error {
		_, _ = cpu.Choose(g, cands) // declining (ErrNotBeneficial) is a valid outcome
		return nil
	}); err != nil {
		return err
	}

	// The 1000-class graph, PR 8's claimed regime.
	syn := syntheticPartitioner(rand.New(rand.NewSource(1)))
	if _, _, err := syn.round(p.tk, rng); err != nil {
		return err
	}
	bigFull, bigDelta, err := syn.roundsFor(ctx, p.rc, p.tk, rng, 0, 3, "n1000 probe")
	if err != nil {
		return err
	}
	p.rc.layerSamples("mincut.n1000_full_us", bigFull)
	p.rc.layerSamples("mincut.n1000_delta_us", bigDelta)
	return nil
}

// invokeFrame is one echo request as the peer puts it on the wire: a
// short method name, a blob and an integer.
func invokeFrame(blobBytes int) *remote.Message {
	blob := make([]byte, blobBytes)
	for i := range blob {
		blob[i] = byte(i)
	}
	return &remote.Message{
		ID: 7, Kind: remote.MsgInvoke, Obj: 12, Method: "echo",
		Args: []vm.WireValue{
			{Kind: vm.KindString, S: "edit-buffer"},
			{Kind: vm.KindBytes, Bytes: blob},
			{Kind: vm.KindInt, I: 42},
		},
	}
}

const (
	smallBlob = 96
	bulkBlob  = 64 << 10
)

func (p *prober) codec(ctx context.Context) error {
	var buf []byte
	roundTrip := func(m *remote.Message) func() error {
		return func() error {
			var err error
			if buf, err = remote.AppendFrame(buf[:0], m); err != nil {
				return err
			}
			_, err = remote.DecodeFrame(buf)
			return err
		}
	}
	small := roundTrip(invokeFrame(smallBlob))
	if err := p.measure(ctx, "codec.frame_small_ns", 1, 1000, small); err != nil {
		return err
	}
	p.exact("codec.wire_bytes_small", float64(len(buf)))
	allocs, _, err := allocsPer(2000, small)
	if err != nil {
		return err
	}
	p.rc.layerCount("codec.allocs_small", allocs)
	return p.measure(ctx, "codec.frame_64k_ns", 1, 20, roundTrip(invokeFrame(bulkBlob)))
}

// emulatorRuns replays each application once: the memory study's three
// under the Figure-6 configuration, the CPU study's Voxel and Tracer
// under Figure 10's combined policy (which replays the trace twice).
func (p *prober) emulator(ctx context.Context) error {
	type run struct {
		app, metric string
		passes      int64
		do          func(s *experiments.Suite) (*emulator.Result, error)
	}
	mem := func(app string) func(*experiments.Suite) (*emulator.Result, error) {
		return func(s *experiments.Suite) (*emulator.Result, error) { return s.DiagMemoryRun(app) }
	}
	cpu := func(app string) func(*experiments.Suite) (*emulator.Result, error) {
		return func(s *experiments.Suite) (*emulator.Result, error) { return s.DiagCPURun(app, true, true, false) }
	}
	runs := []run{
		{"JavaNote", "emulator.javanote_ns_per_event", 1, mem("JavaNote")},
		{"Dia", "emulator.dia_ns_per_event", 1, mem("Dia")},
		{"Biomer", "emulator.biomer_ns_per_event", 1, mem("Biomer")},
		{"Voxel", "emulator.voxel_ns_per_event", 2, cpu("Voxel")},
		{"Tracer", "emulator.tracer_ns_per_event", 2, cpu("Tracer")},
	}
	h := sha256.New()
	partitions := 0
	for _, r := range runs {
		if err := ctx.Err(); err != nil {
			return err
		}
		sid := p.tk.begin(r.metric)
		t0 := time.Now()
		res, err := r.do(p.ts.suite)
		d := time.Since(t0)
		p.tk.end(sid)
		if err != nil {
			return fmt.Errorf("emulator %s: %w", r.app, err)
		}
		digestResult(h, r.app, res)
		partitions += len(res.Partitions)
		p.rc.layerCount(r.metric, float64(d)/float64(res.Events*r.passes))
	}
	p.exact("emulator.partitions_total", float64(partitions))
	ok := 0.0
	if p.rc.gold.equal("probe.emulator.digest", hex.EncodeToString(h.Sum(nil))) {
		ok = 1
		p.rc.ok(len(runs))
	} else {
		p.rc.bad(len(runs), "emulator: simulated results differ from the golden digest")
	}
	p.rc.layerCount("emulator.digest_ok", ok)
	p.rc.layerCount("apps.record_s", p.ts.recordS)
	p.exact("trace.events_total", float64(p.ts.events))
	return nil
}
