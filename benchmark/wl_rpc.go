package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"aide/internal/vm"
)

// rpcLoad describes the echo traffic of one rpc workload.
type rpcLoad struct {
	poolSize       int // distinct payloads, cycled through
	minB, maxB     int // payload size range in bytes
	warmup         int // untimed invokes during set-up
	samplesPerSide int // latency-slice capacity, so appends rarely grow mid-phase
}

var (
	smallLoad = rpcLoad{poolSize: 256, minB: 16, maxB: 96, warmup: 2000, samplesPerSide: 1 << 17}
	bulkLoad  = rpcLoad{poolSize: 16, minB: 64 << 10, maxB: 64 << 10, warmup: 100, samplesPerSide: 1 << 14}
)

// rpcSamples collects what the phases of an rpc workload measure, over
// all epochs of a run.
type rpcSamples struct {
	invokeUs []float64 // one caller
	p99Us    []float64 // 99th percentile of each epoch's invokeUs
	multiUs  []float64 // callers callers
	rates    []float64 // completions per second under callers callers, one sample per epoch
	mbps     []float64 // argument and result bytes per second in the same phase
}

// echoOnce is the timed operation of both rpc workloads: one remote
// invoke carrying a blob out and the same blob back. The payload check
// runs after the clock stops.
func echoOnce(tk *track, th *vm.Thread, svc vm.ObjectID, payload []byte) (time.Duration, error) {
	id := tk.begin("peer.invoke")
	t0 := time.Now()
	ret, err := th.Invoke(svc, "echo", vm.Blob(payload))
	d := time.Since(t0)
	tk.end(id)
	if err != nil {
		return d, err
	}
	if ret.Kind != vm.KindBytes || !bytes.Equal(ret.Bytes, payload) {
		return d, fmt.Errorf("echo returned %d bytes that differ from the %d sent", len(ret.Bytes), len(payload))
	}
	return d, nil
}

// singleCaller is phase A: one caller, latency per invoke.
func singleCaller(ctx context.Context, rc *runCtx, e *echoSession, pool [][]byte, frac float64, acc *rpcSamples) error {
	from := len(acc.invokeUs)
	defer func() {
		if got := acc.invokeUs[from:]; len(got) > 0 {
			acc.p99Us = append(acc.p99Us, quantile(sortedCopy(got), 0.99))
		}
	}()
	return rc.until(ctx, rc.phase(frac), 16, func(i int) error {
		rc.main.nextReq()
		d, err := echoOnce(rc.main, e.th, e.svc, pool[i%len(pool)])
		if err != nil {
			rc.bad(1, "invoke: %v", err)
			return nil
		}
		rc.ok(1)
		acc.invokeUs = append(acc.invokeUs, float64(d)/1e3)
		return nil
	})
}

// multiCaller is phase B: callers goroutines, each with its own VM
// thread, sharing the one connection, so the peer's writer is the
// contended resource. An epoch yields one rate sample, completions over
// the phase's wall time; the median over the epochs is reported, which a
// stall of the host during one of them does not move.
func multiCaller(ctx context.Context, rc *runCtx, e *echoSession, load rpcLoad, pool [][]byte, frac float64, acc *rpcSamples) {
	type side struct {
		lat    []float64
		bytes  int64
		failed int
		note   string
	}
	sides := make([]side, callers)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range sides {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			sd := &sides[c]
			sd.lat = make([]float64, 0, load.samplesPerSide)
			th := e.cvm.NewThread()
			tk := rc.rec.track()
			// until only reads rc; the counters are folded in after Wait.
			_ = rc.until(ctx, rc.phase(frac), 16, func(i int) error {
				p := pool[(i*callers+c)%len(pool)]
				tk.nextReq()
				d, err := echoOnce(tk, th, e.svc, p)
				if err != nil {
					sd.failed++
					sd.note = err.Error()
					return nil
				}
				sd.lat = append(sd.lat, float64(d)/1e3)
				sd.bytes += 2 * int64(len(p))
				return nil
			})
		}(c)
	}
	wg.Wait()
	wall := time.Since(start).Seconds()

	completed, moved := 0, int64(0)
	for _, sd := range sides {
		acc.multiUs = append(acc.multiUs, sd.lat...)
		completed += len(sd.lat)
		moved += sd.bytes
		rc.ok(len(sd.lat))
		if sd.failed > 0 {
			rc.bad(sd.failed, "invoke (%d callers): %s", callers, sd.note)
		}
	}
	if completed > 0 {
		acc.rates = append(acc.rates, float64(completed)/wall)
		acc.mbps = append(acc.mbps, float64(moved)/1e6/wall)
	}
}

// fieldReads is the remote data access phase: the client reads the
// offloaded object's state field, which crosses the wire as a field
// request instead of an invocation and comes back as the blob the
// object was created with. One caller, like phase A.
func fieldReads(ctx context.Context, rc *runCtx, e *echoSession, want []byte, frac float64, fieldUs *[]float64) error {
	return rc.until(ctx, rc.phase(frac), 16, func(int) error {
		rc.main.nextReq()
		id := rc.main.begin("peer.get_field")
		t0 := time.Now()
		v, err := e.th.GetField(e.svc, "state")
		d := time.Since(t0)
		rc.main.end(id)
		if err != nil || !bytes.Equal(v.Bytes, want) {
			rc.bad(1, "remote field read returned %d bytes, want %d (%v)", len(v.Bytes), len(want), err)
			return nil
		}
		rc.ok(1)
		*fieldUs = append(*fieldUs, float64(d)/1e3)
		return nil
	})
}

// report fills the slots the two rpc workloads share: op_a is the median
// of the one-caller invokes (about 200,000 samples a run for the small
// blob, 20,000 for 64 KiB); op_c their 99th percentile, taken epoch by
// epoch with the median epoch reported, so that a stall of the host
// during one epoch does not set the run's tail; rate the completions per
// second under callers callers. payload_MBps is that rate times the mean
// payload, which the seed fixes, so the rate's bound gates it too.
func (acc *rpcSamples) report(rc *runCtx) error {
	if len(acc.invokeUs) == 0 || len(acc.rates) == 0 {
		return fmt.Errorf("%s: a phase completed no operation (%d invokes, %d under %d callers)",
			rc.wl.Name, len(acc.invokeUs), len(acc.multiUs), callers)
	}
	rc.slot(mOpA, acc.invokeUs)
	rc.slot(mOpC, acc.p99Us)
	rc.slot(mRate, acc.rates)
	rc.extra("payload_MBps", "MB/s", acc.mbps)
	rc.extra("invoke_us_under_callers", "us", acc.multiUs)
	return nil
}

// echoFixture is the platform of one epoch: a surrogate session with the
// Echo object offloaded and warmed. The object's state field holds the
// pool's last payload.
type echoFixture struct {
	e *echoSession
}

func (f *echoFixture) build(ctx context.Context, rc *runCtx, load rpcLoad, pool [][]byte) error {
	e, err := newSurrogateSession(ctx, rc.main, pool[len(pool)-1])
	if err != nil {
		return err
	}
	f.e = e
	for i := 0; i < load.warmup; i++ {
		if _, err := echoOnce(nil, e.th, e.svc, pool[i%len(pool)]); err != nil {
			return err
		}
	}
	return nil
}

func (f *echoFixture) discard() {
	if f.e != nil {
		_ = f.e.close()
		f.e = nil
	}
}

// checkSession gates what Surrogate.Stats must show after an epoch: the
// one session admitted, nothing refused, and a quiet wire.
func checkSession(rc *runCtx, e *echoSession) {
	st := e.sur.Stats()
	if st.Admitted != 1 || st.Rejected+st.Shed+st.Evicted != 0 {
		rc.bad(1, "surrogate stats %+v, want exactly one admitted session", st)
		return
	}
	ps := e.peer.Stats()
	if ps.SendRetries+ps.CallTimeouts+ps.OrphanReplies != 0 {
		rc.bad(1, "peer stats show retries=%d timeouts=%d orphans=%d, want none", ps.SendRetries, ps.CallTimeouts, ps.OrphanReplies)
		return
	}
	rc.ok(1)
}

const chainDepth = 16

// chainOnce ships chainDepth dependent hops as one pipelined frame.
func chainOnce(ctx context.Context, tk *track, e *echoSession) (time.Duration, error) {
	id := tk.begin("vm.pipeline_run")
	defer tk.end(id)
	t0 := time.Now()
	p := e.cvm.NewPipeline()
	var recv any = e.svc
	for i := 0; i < chainDepth; i++ {
		recv = p.Invoke(recv, "hop")
	}
	res, err := p.Run(ctx)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if last := res[chainDepth-1]; last.Kind != vm.KindRef || last.Ref == vm.InvalidObject {
		return d, fmt.Errorf("chain resolved to %v, want a reference", last)
	}
	e.th.ClearTemps()
	return d, nil
}

// runRPCSmall is the rpc_small workload.
func runRPCSmall(ctx context.Context, rc *runCtx) error {
	pool := payloadPool(rand.New(rand.NewSource(rc.seed)), smallLoad.poolSize, smallLoad.minB, smallLoad.maxB)
	var acc rpcSamples
	var chainUs, fieldUs []float64
	var fx echoFixture

	chains := func() error {
		e := fx.e
		framesBefore, chainsBefore := e.peer.Stats().PipelineFrames, len(chainUs)
		if err := rc.until(ctx, rc.phase(0.2), 4, func(int) error {
			rc.main.nextReq()
			d, err := chainOnce(ctx, rc.main, e)
			if err != nil {
				rc.bad(1, "chain16: %v", err)
				return nil
			}
			rc.ok(1)
			chainUs = append(chainUs, float64(d)/1e3)
			return nil
		}); err != nil {
			return err
		}
		n := int64(len(chainUs) - chainsBefore)
		if frames := e.peer.Stats().PipelineFrames - framesBefore; frames != n {
			rc.bad(1, "%d chains sent %d pipeline frames: pipelining degraded to sequential calls", n, frames)
		}
		return nil
	}
	measure := func() error {
		err := rc.rotate(
			func() error { return singleCaller(ctx, rc, fx.e, pool, 0.3, &acc) },
			func() error { return fieldReads(ctx, rc, fx.e, pool[len(pool)-1], 0.15, &fieldUs) },
			chains,
			func() error { multiCaller(ctx, rc, fx.e, smallLoad, pool, 0.35, &acc); return nil },
		)
		checkSession(rc, fx.e)
		return err
	}

	if err := rc.eachEpoch(rpcEpochs, func() error { return fx.build(ctx, rc, smallLoad, pool) }, measure, fx.discard); err != nil {
		return err
	}
	if len(chainUs) == 0 || len(fieldUs) == 0 {
		return fmt.Errorf("rpc_small: %d chains and %d field reads succeeded", len(chainUs), len(fieldUs))
	}
	rc.slot(mOpB, chainUs)
	rc.slot(mOpD, fieldUs)
	return acc.report(rc)
}

const (
	chunkObjects = 256
	chunkBytes   = 4 << 10
)

// runRPCBulk is the rpc_bulk workload.
func runRPCBulk(ctx context.Context, rc *runCtx) error {
	rng := rand.New(rand.NewSource(rc.seed))
	pool := payloadPool(rng, bulkLoad.poolSize, bulkLoad.minB, bulkLoad.maxB)
	chunks := payloadPool(rng, chunkObjects, chunkBytes, chunkBytes)
	classes := []string{"Chunk"}
	const mb = float64(chunkObjects*chunkBytes) / 1e6
	var acc rpcSamples
	var outUs, backUs, outMBps, backMBps []float64
	var fx echoFixture
	var ids []vm.ObjectID

	// Besides the echo object the client holds 256 Chunk objects with a
	// real 4 KiB blob each: Table-1 objects carry nominal sizes only, so
	// this is the one place migration moves real bytes.
	build := func() error {
		err := fx.build(ctx, rc, bulkLoad, pool)
		if err == nil {
			ids, err = makeChunks(fx.e, chunks)
		}
		return err
	}

	// Migrate the chunks out and back; the bytes that came home must be
	// the bytes that left.
	migrate := func() error {
		e := fx.e
		if err := rc.until(ctx, rc.phase(0.3), 2, func(int) error {
			rc.main.nextReq()
			id := rc.main.begin("peer.offload")
			t0 := time.Now()
			n, _, err := e.peer.OffloadContext(ctx, classes)
			t1 := time.Now()
			rc.main.end(id)
			if err != nil || n != chunkObjects {
				rc.bad(1, "offload moved %d chunks: %v", n, err)
				return nil
			}
			id = rc.main.begin("peer.recall")
			n, _, err = e.peer.RecallContext(ctx, classes)
			t2 := time.Now()
			rc.main.end(id)
			if err != nil || n != chunkObjects {
				rc.bad(1, "recall moved %d chunks: %v", n, err)
				return nil
			}
			rc.ok(1)
			outUs = append(outUs, float64(t1.Sub(t0))/1e3)
			backUs = append(backUs, float64(t2.Sub(t1))/1e3)
			outMBps = append(outMBps, mb/t1.Sub(t0).Seconds())
			backMBps = append(backMBps, mb/t2.Sub(t1).Seconds())
			return nil
		}); err != nil {
			return err
		}
		for i, id := range ids {
			v, err := e.th.GetField(id, "data")
			if err != nil || !bytes.Equal(v.Bytes, chunks[i]) {
				rc.bad(1, "chunk %d came back changed (%v)", i, err)
				break
			}
		}
		return nil
	}
	measure := func() error {
		err := rc.rotate(
			func() error { return singleCaller(ctx, rc, fx.e, pool, 0.35, &acc) },
			migrate,
			func() error { multiCaller(ctx, rc, fx.e, bulkLoad, pool, 0.35, &acc); return nil },
		)
		checkSession(rc, fx.e)
		return err
	}

	if err := rc.eachEpoch(rpcEpochs, build, measure, fx.discard); err != nil {
		return err
	}
	if len(outUs) == 0 {
		return fmt.Errorf("rpc_bulk: no successful migration cycle")
	}
	rc.slot(mOpB, outUs)
	rc.slot(mOpD, backUs)
	rc.extra("migrate_MBps", "MB/s", outMBps)
	rc.extra("recall_MBps", "MB/s", backMBps)
	return acc.report(rc)
}
