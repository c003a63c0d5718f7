package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"aide"
	"aide/internal/apps"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/policy"
	"aide/internal/remote"
	"aide/internal/vm"
)

// Probes of the layers a remote invoke crosses. One invoke is decomposed
// by nested probes at the same frame size, each adding one layer to the
// one inside it:
//
//	transport.tcp_floor_us   raw loopback echo of the frame's bytes
//	transport.rtt_small_us   + the codec and the transport's framing
//	peer.ping_us             + call table, receive loop and worker (no vm)
//	peer.invoke_bare_us      + vm dispatch and argument conversion
//	surrogate session invoke + session admission and the per-message gate
//
// A layer's self time is its probe minus the one inside it.

// echoServer answers every frame on a connection until it closes.
type echoServer struct {
	wg    sync.WaitGroup
	close func() error
}

func (s *echoServer) stop() {
	_ = s.close()
	s.wg.Wait()
}

// rawEcho is the host's floor: size-byte buffers bounced over loopback
// with no codec and no platform on either end.
func rawEcho(size int) (step func() error, srv *echoServer, err error) {
	c, s, err := tcpPair()
	if err != nil {
		return nil, nil, err
	}
	srv = &echoServer{close: func() error { return errors.Join(s.Close(), c.Close()) }}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		buf := make([]byte, size)
		for {
			if _, err := io.ReadFull(s, buf); err != nil {
				return
			}
			if _, err := s.Write(buf); err != nil {
				return
			}
		}
	}()
	buf := make([]byte, size)
	return func() error {
		if _, err := c.Write(buf); err != nil {
			return err
		}
		_, err := io.ReadFull(c, buf)
		return err
	}, srv, nil
}

// transportEcho bounces a pre-built message between two transports.
func transportEcho(tc, ts remote.Transport, m *remote.Message) (step func() error, srv *echoServer) {
	srv = &echoServer{close: func() error { return errors.Join(ts.Close(), tc.Close()) }}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		for {
			in, err := ts.Recv()
			if err != nil {
				return
			}
			if err := ts.Send(in); err != nil {
				return
			}
		}
	}()
	return func() error {
		if err := tc.Send(m); err != nil {
			return err
		}
		_, err := tc.Recv()
		return err
	}, srv
}

func connTransports() (remote.Transport, remote.Transport, error) {
	c, s, err := tcpPair()
	if err != nil {
		return nil, nil, err
	}
	return remote.NewConnTransport(c), remote.NewConnTransport(s), nil
}

// transport measures the two transport round trips that are not part of
// the nested invoke decomposition: a 64 KiB frame over TCP, and the
// small frame over the in-process channel pair.
func (p *prober) transport(ctx context.Context) error {
	tc, ts, err := connTransports()
	if err != nil {
		return err
	}
	step, srv := transportEcho(tc, ts, invokeFrame(bulkBlob))
	err = p.measure(ctx, "transport.rtt_64k_us", nsPerUs, 20, step)
	srv.stop()
	if err != nil {
		return err
	}
	tc, ts = remote.NewChannelPair()
	step, srv = transportEcho(tc, ts, invokeFrame(smallBlob))
	err = p.measure(ctx, "transport.chan_rtt_us", nsPerUs, 200, step)
	srv.stop()
	return err
}

// nestedProbe is one level of the invoke decomposition.
type nestedProbe struct {
	span string
	step func() error
	ns   []float64
}

// interleave runs one batch of every probe per round, so that drift of
// the host over the measuring window lands on all levels alike and
// their differences — each layer's self time — stay meaningful.
func (p *prober) interleave(ctx context.Context, probes []*nestedProbe, batch int) error {
	return p.rc.until(ctx, time.Duration(len(probes))*6*p.budget(), 5, func(int) error {
		for _, np := range probes {
			id := p.tk.begin(np.span)
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				if err := np.step(); err != nil {
					p.tk.end(id)
					return fmt.Errorf("%s: %w", np.span, err)
				}
			}
			np.ns = append(np.ns, float64(time.Since(t0))/float64(batch))
			p.tk.end(id)
		}
		return nil
	})
}

// makeChunks gives the session's client chunkObjects objects holding a
// real blob each, rooted so they survive collections.
func makeChunks(e *echoSession, chunks [][]byte) ([]vm.ObjectID, error) {
	ids := make([]vm.ObjectID, 0, len(chunks))
	for i, c := range chunks {
		id, err := e.th.New("Chunk", int64(len(c)))
		if err != nil {
			return nil, err
		}
		if err := e.th.SetField(id, "data", vm.Blob(c)); err != nil {
			return nil, err
		}
		e.cvm.SetRoot(fmt.Sprintf("chunk:%d", i), id)
		e.th.ClearTemps()
		ids = append(ids, id)
	}
	return ids, nil
}

// smallPayload is the blob of the small invoke frame: what every remote
// probe echoes, so that all levels move the same bytes.
func smallPayload() []byte { return invokeFrame(smallBlob).Args[1].Bytes }

func echoStep(e *echoSession, payload []byte) func() error {
	return func() error { _, err := echoOnce(nil, e.th, e.svc, payload); return err }
}

func (p *prober) peerAndSurrogate(ctx context.Context) error {
	payload := smallPayload()

	// Bare pair over TCP: no aide.Surrogate, no session gate.
	tc, ts, err := connTransports()
	if err != nil {
		return err
	}
	bare, err := newBareSession(tc, ts, payload)
	if err != nil {
		return err
	}
	defer bare.close()
	sess, err := newSurrogateSession(ctx, p.tk, payload)
	if err != nil {
		return err
	}
	defer sess.close()

	for _, part := range []func() error{
		func() error { return p.invokeLevels(ctx, bare, sess) },
		func() error { return p.peerCounts(ctx, bare) },
		func() error { return p.peerMigration(ctx, bare) },
		func() error { return p.inProcessPeer(ctx) },
		func() error { return p.sessionSetup(ctx) },
	} {
		if err := part(); err != nil {
			return err
		}
	}
	st := bare.peer.Stats()
	p.rc.layerCount("peer.retries", float64(st.SendRetries))
	p.rc.layerCount("peer.timeouts", float64(st.CallTimeouts))
	p.rc.layerCount("peer.orphan_replies", float64(st.OrphanReplies))
	stats := sess.sur.Stats()
	p.rc.layerCount("surrogate.sessions_admitted", float64(stats.Admitted))
	p.rc.layerCount("surrogate.rejected", float64(stats.Rejected+stats.Shed+stats.Evicted))
	return nil
}

// onePMu serializes onOneP: GOMAXPROCS is process-wide, and the smoke
// tests run in parallel.
var onePMu sync.Mutex

// onOneP runs f with the Go scheduler held to one processor, where a
// round trip costs its processor time and nothing else. Only the nested
// invoke probes use it; every workload runs at the process's own
// GOMAXPROCS.
func onOneP(f func() error) error {
	onePMu.Lock()
	defer onePMu.Unlock()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// invokeLevels measures the five nested levels of one remote invoke,
// innermost first, all alive at once and driven by one caller. The
// levels are told apart on one processor: there each costs what its code
// costs, and each level reads above the one inside it. With a second
// processor the goroutines of a round trip — caller, the two receive
// loops, the serving worker — wake each other across threads, which
// costs more than all the code together and varies by 2x from batch to
// batch, so the levels cross. The outermost level is therefore measured
// a second time at the process's own GOMAXPROCS, as rpc_small's op_a is,
// and the difference is reported as the runtime's share.
func (p *prober) invokeLevels(ctx context.Context, bare, sess *echoSession) error {
	small := invokeFrame(smallBlob)
	payload := small.Args[1].Bytes
	frame, err := remote.AppendFrame(nil, small)
	if err != nil {
		return err
	}
	rawStep, rawSrv, err := rawEcho(len(frame))
	if err != nil {
		return err
	}
	defer rawSrv.stop()
	tc, ts, err := connTransports()
	if err != nil {
		return err
	}
	rttStep, rttSrv := transportEcho(tc, ts, small)
	defer rttSrv.stop()

	floor := &nestedProbe{span: "transport.tcp_floor_us", step: rawStep}
	rtt := &nestedProbe{span: "transport.rtt_small_us", step: rttStep}
	ping := &nestedProbe{span: "peer.ping_us", step: bare.peer.Ping}
	invoke := &nestedProbe{span: "peer.invoke_bare_us", step: echoStep(bare, payload)}
	gated := &nestedProbe{span: "surrogate.session_invoke", step: echoStep(sess, payload)}
	levels := []*nestedProbe{floor, rtt, ping, invoke, gated}
	if err := onOneP(func() error { return p.interleave(ctx, levels, 100) }); err != nil {
		return err
	}
	allP := &nestedProbe{span: "surrogate.session_invoke_all_p", step: gated.step}
	if err := p.interleave(ctx, []*nestedProbe{allP}, 100); err != nil {
		return err
	}
	handoff := (median(allP.ns) - median(gated.ns)) / nsPerUs
	p.rc.layerCount("rt.cross_p_handoff_us", handoff)
	for _, np := range levels[:4] {
		p.rc.layerSamples(np.span, scaled(np.ns, 1/nsPerUs))
	}
	gate := make([]float64, len(gated.ns))
	for i := range gate {
		gate[i] = (gated.ns[i] - invoke.ns[i]) / nsPerUs // same round, so same host conditions
	}
	p.rc.layerSamples("surrogate.session_gate_us", gate)
	fmt.Printf("invoke budget (us, p50): tcp floor %.2f | +codec/framing %.2f | +call table/workers %.2f | +vm dispatch %.2f | +session gate %.2f = %.2f on one processor | +wake-ups across processors %.2f = %.2f at GOMAXPROCS %d\n",
		median(floor.ns)/nsPerUs, (median(rtt.ns)-median(floor.ns))/nsPerUs, (median(ping.ns)-median(rtt.ns))/nsPerUs,
		(median(invoke.ns)-median(ping.ns))/nsPerUs, median(gate), median(gated.ns)/nsPerUs,
		handoff, median(allP.ns)/nsPerUs, runtime.GOMAXPROCS(0))
	p.rc.ok(len(levels) * len(floor.ns))
	return nil
}

// peerCounts reports what one invoke costs in allocations, and the
// counts of frames and release batches.
func (p *prober) peerCounts(ctx context.Context, bare *echoSession) error {
	payload := smallPayload()

	// Argument conversion alone: vm values to wire values and back.
	args := []vm.Value{vm.Str("edit-buffer"), vm.Blob(payload), vm.Int(42)}
	decoded := make([]vm.Value, len(args))
	idx := bare.peer.VMIndex()
	if err := p.measure(ctx, "vm.wire_args_ns", 1, 1000, func() error {
		ws, err := bare.cvm.EncodeOutgoingAll(idx, args)
		if err != nil {
			return err
		}
		return bare.cvm.DecodeIncomingSlice(idx, ws, decoded)
	}); err != nil {
		return err
	}

	allocs, heapBytes, err := allocsPer(2000, echoStep(bare, payload))
	if err != nil {
		return err
	}
	p.rc.layerCount("peer.allocs_per_invoke", allocs)
	p.rc.layerCount("peer.heap_bytes_per_invoke", heapBytes)

	const chains = 8
	framesBefore := bare.peer.Stats().PipelineFrames
	for i := 0; i < chains; i++ {
		if _, err := chainOnce(ctx, p.tk, bare); err != nil {
			return err
		}
	}
	p.exact("peer.pipeline_frames_per_chain", float64(bare.peer.Stats().PipelineFrames-framesBefore)/chains)

	// A 1,000-stub death storm: decrefs for ids the other side never
	// exported are pure wire traffic; the ping drains the tail batch.
	batchesBefore := bare.peer.Stats().ReleaseBatchesSent
	for i := 0; i < 1000; i++ {
		bare.peer.Release(vm.ObjectID(1_000_000 + i))
	}
	if err := bare.peer.Ping(); err != nil {
		return err
	}
	p.rc.layerCount("peer.release_batches_per_1k", float64(bare.peer.Stats().ReleaseBatchesSent-batchesBefore))
	return nil
}

// peerMigration moves 256 objects holding 4 KiB each out and back.
func (p *prober) peerMigration(ctx context.Context, bare *echoSession) error {
	chunks := make([][]byte, chunkObjects)
	for i := range chunks {
		chunks[i] = make([]byte, chunkBytes)
	}
	if _, err := makeChunks(bare, chunks); err != nil {
		return err
	}
	const mb = float64(chunkObjects*chunkBytes) / 1e6
	var out, back []float64
	for i := 0; i < 3; i++ {
		sid := p.tk.begin("peer.offload")
		t0 := time.Now()
		moved, _, err := bare.peer.OffloadContext(ctx, []string{"Chunk"})
		t1 := time.Now()
		p.tk.end(sid)
		if err != nil || moved != chunkObjects {
			return fmt.Errorf("probe offload moved %d chunks: %v", moved, err)
		}
		sid = p.tk.begin("peer.recall")
		moved, _, err = bare.peer.RecallContext(ctx, []string{"Chunk"})
		t2 := time.Now()
		p.tk.end(sid)
		if err != nil || moved != chunkObjects {
			return fmt.Errorf("probe recall moved %d chunks: %v", moved, err)
		}
		out = append(out, mb/t1.Sub(t0).Seconds())
		back = append(back, mb/t2.Sub(t1).Seconds())
	}
	p.rc.layerSamples("peer.migrate_MBps", out)
	p.rc.layerSamples("peer.recall_MBps", back)
	return nil
}

// inProcessPeer is the bare pair over the channel transport.
func (p *prober) inProcessPeer(ctx context.Context) error {
	payload := smallPayload()
	ca, cb := remote.NewChannelPair()
	inproc, err := newBareSession(ca, cb, payload)
	if err != nil {
		return err
	}
	// Message ids are varints, so bytes per invoke are only exact while
	// the ids stay below 128: count them on this fresh pair's first calls.
	const counted = 50
	before := inproc.peer.Stats()
	for i := 0; i < counted && err == nil; i++ {
		err = echoStep(inproc, payload)()
	}
	now := inproc.peer.Stats()
	p.exact("peer.wire_bytes_per_invoke", float64(now.BytesSent+now.BytesReceived-before.BytesSent-before.BytesReceived)/counted)
	if err == nil {
		err = p.measure(ctx, "peer.invoke_chan_us", nsPerUs, 200, echoStep(inproc, payload))
	}
	return errors.Join(err, inproc.close())
}

// sessionSetup times what a client pays before its first request:
// starting a surrogate, and dial plus session handshake.
func (p *prober) sessionSetup(ctx context.Context) error {
	var attachUs, listenUs []float64
	reg, err := echoRegistry()
	if err != nil {
		return err
	}
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		sur, addr, err := newSurrogate(p.tk, reg)
		if err != nil {
			return err
		}
		listenUs = append(listenUs, float64(time.Since(t0))/nsPerUs)
		sid := p.tk.begin("surrogate.attach")
		t0 = time.Now()
		_, peer, err := dialPeer(ctx, reg, addr, 1<<20)
		attachUs = append(attachUs, float64(time.Since(t0))/nsPerUs)
		p.tk.end(sid)
		if err == nil {
			err = peer.Close()
		}
		if err = errors.Join(err, sur.Close()); err != nil {
			return err
		}
	}
	p.rc.layerSamples("surrogate.attach_us", attachUs)
	p.rc.layerSamples("surrogate.listen_us", listenUs)
	return nil
}

// handClient is a client put together from the platform's parts — VM,
// monitor, peer attached to a real surrogate — so that the five stages
// of Client.Offload can be called, and timed, one at a time.
type handClient struct {
	cvm  *vm.VM
	mon  *monitor.Monitor
	peer *remote.Peer
	sur  *aide.Surrogate
	heap int64
}

func newHandClient(ctx context.Context, p *prober) (*handClient, error) {
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, err
	}
	reg, driver, err := spec.Build()
	if err != nil {
		return nil, err
	}
	sur, addr, err := newSurrogate(p.tk, reg)
	if err != nil {
		return nil, err
	}
	cvm, peer, err := dialPeer(ctx, reg, addr, spec.RecordHeap)
	if err != nil {
		_ = sur.Close()
		return nil, err
	}
	h := &handClient{cvm: cvm, mon: monitor.New(monitor.RegistryMeta(reg)), peer: peer, sur: sur, heap: spec.RecordHeap}
	cvm.SetHooks(h.mon)
	if err := driver(cvm.NewThread()); err != nil {
		_ = h.close()
		return nil, err
	}
	return h, nil
}

func (h *handClient) close() error {
	err := h.peer.Close()
	if cerr := h.sur.Close(); err == nil {
		err = cerr
	}
	return err
}

// offloadByStages is Client.Offload with each stage a span of its own.
func (h *handClient) offloadByStages(ctx context.Context, p *prober) ([]string, error) {
	tk := p.tk
	all := tk.begin("client.offload_by_stages")
	defer tk.end(all)

	s := tk.begin("client.offload_graph_us")
	g := h.mon.Graph()
	tk.end(s)

	s = tk.begin("client.offload_cut_us")
	sc := &mincut.Scratch{}
	cands, err := sc.Candidates(sc.FromGraph(g, graph.BytesWeight))
	tk.end(s)
	if err != nil {
		return nil, err
	}

	s = tk.begin("client.offload_choose_us")
	mp := policy.MemoryPolicy{MinFreeFraction: policy.InitialParams().MinFreeFraction}
	dec, err := mp.Choose(g, h.heap, cands)
	if err != nil {
		tk.end(s)
		return nil, err
	}
	type classInfo struct {
		name string
		size int64
	}
	var chosen []classInfo
	for _, n := range g.Nodes() {
		if !dec.InClient[n.ID] {
			chosen = append(chosen, classInfo{n.Name, n.Memory})
		}
	}
	sort.Slice(chosen, func(i, j int) bool {
		if chosen[i].size != chosen[j].size {
			return chosen[i].size > chosen[j].size
		}
		return chosen[i].name < chosen[j].name
	})
	classes := make([]string, len(chosen))
	for i, c := range chosen {
		classes[i] = c.name
	}
	tk.end(s)

	s = tk.begin("client.offload_migrate_us")
	_, _, err = h.peer.OffloadContext(ctx, classes)
	tk.end(s)
	if err != nil {
		return nil, err
	}

	s = tk.begin("client.offload_collect_us")
	h.cvm.Collect()
	tk.end(s)
	return classes, nil
}

func (p *prober) client(ctx context.Context) error {
	const cycles = 10

	// The real Client.Offload gives the total; the same five calls made
	// one by one on an identical hand-built client give the stages. The
	// two alternate so that both see the same host conditions.
	real, err := newCycleClient(p.rc)
	if err != nil {
		return err
	}
	defer real.close()
	hand, err := newHandClient(ctx, p)
	if err != nil {
		return err
	}
	defer hand.close()
	var offloadUs, recallMs []float64
	from := len(p.tk.spans)
	for i := 0; i < cycles; i++ {
		t0 := time.Now()
		rep, err := real.client.Offload()
		t1 := time.Now()
		if err == nil {
			_, _, err = real.client.Recall(rep.Classes)
		}
		if err != nil {
			return fmt.Errorf("probe offload cycle: %w", err)
		}
		offloadUs = append(offloadUs, float64(t1.Sub(t0))/nsPerUs)
		recallMs = append(recallMs, float64(time.Since(t1))/nsPerMs)

		classes, err := hand.offloadByStages(ctx, p)
		if err == nil {
			_, _, err = hand.peer.RecallContext(ctx, classes)
		}
		if err != nil {
			return fmt.Errorf("probe staged offload: %w", err)
		}
	}
	p.rc.layerSamples("client.recall_ms_p50", recallMs)
	stages := 0.0
	for _, m := range []string{
		"client.offload_graph_us", "client.offload_cut_us", "client.offload_choose_us",
		"client.offload_migrate_us", "client.offload_collect_us",
	} {
		us := p.spanUs(m, from)
		p.rc.layerSamples(m, us)
		stages += median(us)
	}
	unattributed := 1 - stages/median(offloadUs)
	p.rc.layerCount("client.offload_unattributed_frac", unattributed)
	fmt.Printf("offload budget: Client.Offload p50 %.0f us, five stages sum to %.0f us, unattributed %.1f%%\n",
		median(offloadUs), stages, unattributed*100)
	p.rc.ok(2 * cycles)

	// One live JavaNote run with a telemetry registry attached: how many
	// peer calls and wire bytes the run made, by the platform's own count.
	treg := aide.NewTelemetry()
	l, _, err := newLiveClient(p.tk, "JavaNote", 0, aide.WithTelemetry(treg, nil))
	if err != nil {
		return err
	}
	_, err = l.run(p.tk)
	if err == nil {
		err = checkLiveRun(l, "JavaNote", true)
	}
	if cerr := l.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("probe live JavaNote: %w", err)
	}
	var calls, wire int64
	for _, f := range treg.Snapshot().Families {
		switch f.Name {
		case "aide_remote_requests_sent_total":
			calls = f.Value
		case "aide_remote_bytes_sent_total", "aide_remote_bytes_received_total":
			wire += f.Value
		}
	}
	p.rc.layerCount("client.remote_calls_per_javanote", float64(calls))
	p.rc.layerCount("client.wire_bytes_per_javanote", float64(wire))
	p.rc.ok(1)
	return nil
}
