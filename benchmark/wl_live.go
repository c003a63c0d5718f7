package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aide"
	"aide/internal/apps"
	"aide/internal/vm"
)

// liveApps are the memory-study applications, in end-to-end slot order
// (op_a, op_b, op_c). At their 6 MiB client heap JavaNote and Biomer
// must offload to finish; Dia never does, so within this workload it is
// the control on which peer, codec and transport do nothing.
var liveApps = []struct {
	name, slot string
	offloads   bool
}{
	{"JavaNote", mOpA, true},
	{"Biomer", mOpB, true},
	{"Dia", mOpC, false},
}

// liveClient is one application on a fresh client attached over TCP to
// a fresh surrogate.
type liveClient struct {
	reg    *vm.Registry
	driver apps.Driver
	client *aide.Client
	sur    *aide.Surrogate
}

func newLiveClient(tk *track, name string, heap int64, opts ...aide.Option) (*liveClient, time.Duration, error) {
	spec, err := apps.ByName(name)
	if err != nil {
		return nil, 0, err
	}
	reg, driver, err := spec.Build()
	if err != nil {
		return nil, 0, err
	}
	sur, addr, err := newSurrogate(tk, reg)
	if err != nil {
		return nil, 0, err
	}
	if heap == 0 {
		heap = spec.EmuHeap
	}
	c := aide.NewClient(reg, append([]aide.Option{aide.WithHeap(heap)}, opts...)...)
	id := tk.begin("client.attach_tcp")
	t0 := time.Now()
	err = c.AttachTCP(addr)
	attach := time.Since(t0)
	tk.end(id)
	if err != nil {
		_ = c.Close()
		_ = sur.Close()
		return nil, 0, err
	}
	return &liveClient{reg: reg, driver: driver, client: c, sur: sur}, attach, nil
}

func (l *liveClient) run(tk *track) (time.Duration, error) {
	settle()
	id := tk.begin("apps.driver")
	t0 := time.Now()
	err := l.driver(l.client.Thread())
	d := time.Since(t0)
	tk.end(id)
	return d, err
}

func (l *liveClient) close() error {
	err := l.client.Close()
	if cerr := l.sur.Close(); err == nil {
		err = cerr
	}
	return err
}

// pinnedIn names the first class of an offload report that may not leave
// the client (native methods: gui.*, io.*, sys.*), or "".
func pinnedIn(reg *vm.Registry, classes []string) string {
	for _, name := range classes {
		if c := reg.Class(name); c == nil || c.Pinned() {
			return name
		}
	}
	return ""
}

// checkLiveRun is the correctness gate of one application run.
func checkLiveRun(l *liveClient, name string, wantOffload bool) error {
	reports, _ := l.client.Offloads()
	if wantOffload && len(reports) == 0 {
		return fmt.Errorf("%s finished without offloading", name)
	}
	if !wantOffload && len(reports) != 0 {
		return fmt.Errorf("%s offloaded %d times, want none", name, len(reports))
	}
	for _, r := range reports {
		if p := pinnedIn(l.reg, r.Classes); p != "" {
			return fmt.Errorf("%s offloaded pinned class %s", name, p)
		}
	}
	return nil
}

// liveRound runs the three applications once each, in the given order,
// and returns each driver's wall clock by application index.
func liveRound(rc *runCtx, order []int, runs, attach [][]float64) error {
	for _, i := range order {
		app := liveApps[i]
		rc.main.nextReq()
		l, at, err := newLiveClient(rc.main, app.name, 0)
		if err != nil {
			return err
		}
		d, err := l.run(rc.main)
		if err == nil {
			err = checkLiveRun(l, app.name, app.offloads)
		}
		if cerr := l.close(); err == nil {
			err = cerr
		}
		if err != nil {
			rc.bad(1, "live %s: %v", app.name, err)
			continue
		}
		rc.ok(1)
		if runs != nil {
			runs[i] = append(runs[i], float64(d)/1e3)
			attach[i] = append(attach[i], float64(at)/1e3)
		}
	}
	return nil
}

// cyclesPerClient bounds how many Offload/Recall cycles one loaded
// client serves before it is replaced. Every Recall adds the returning
// objects to the monitor's per-class memory while Offload never takes
// them out, so the graph's memory grows by ~3.1 MB per cycle; from the
// 35th cycle on the policy picks a smaller cut (481 objects, later 254)
// and the operation is no longer the one being timed. Thirty cycles stay
// on the first plateau (1,545 objects of 103 classes each way, pinned by
// the golden).
const cyclesPerClient = 30

// newCycleClient runs JavaNote to completion on a client at its 12 MiB
// recording heap, where the memory trigger never fires, so that every
// offload afterwards is an explicit one.
func newCycleClient(rc *runCtx) (*liveClient, error) {
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, err
	}
	l, _, err := newLiveClient(rc.main, "JavaNote", spec.RecordHeap)
	if err != nil {
		return nil, err
	}
	if _, err := l.run(rc.main); err != nil {
		_ = l.close()
		return nil, err
	}
	if reports, _ := l.client.Offloads(); len(reports) != 0 {
		_ = l.close()
		return nil, fmt.Errorf("JavaNote offloaded by itself at its recording heap")
	}
	return l, nil
}

// runLiveApps is the live_apps workload.
func runLiveApps(ctx context.Context, rc *runCtx) error {
	rng := rand.New(rand.NewSource(rc.seed))
	runs := make([][]float64, len(liveApps))
	attach := make([][]float64, len(liveApps))
	var offloadUs, cyclesPerS []float64

	// The loaded JavaNote client the Offload/Recall cycles run on.
	var cyc *liveClient
	closeCyc := func() {
		if cyc != nil {
			_ = cyc.close()
			cyc = nil
		}
	}

	// Set-up: a warm-up round and the first cycle client.
	build := func() error {
		if !rc.quick {
			if err := liveRound(rc, []int{0, 1, 2}, nil, nil); err != nil {
				return err
			}
		}
		var err error
		cyc, err = newCycleClient(rc)
		return err
	}

	measure := func() error {
		// Phase 1: rounds of the three applications, order drawn per round.
		if err := rc.until(ctx, rc.phase(0.7), 1, func(int) error {
			return liveRound(rc, rng.Perm(len(liveApps)), runs, attach)
		}); err != nil {
			return err
		}

		// Phase 2: explicit Offload / Recall cycles on the loaded client.
		onClient := 0
		return rc.until(ctx, rc.phase(0.3), 2, func(int) error {
			if onClient == cyclesPerClient {
				closeCyc()
				var err error
				if cyc, err = newCycleClient(rc); err != nil {
					return err
				}
				onClient = 0
			}
			onClient++
			rc.main.nextReq()
			id := rc.main.begin("client.offload")
			t0 := time.Now()
			rep, err := cyc.client.Offload()
			t1 := time.Now()
			rc.main.end(id)
			if err != nil {
				rc.bad(1, "offload: %v", err)
				return nil
			}
			id = rc.main.begin("client.recall")
			n, _, err := cyc.client.Recall(rep.Classes)
			t2 := time.Now()
			rc.main.end(id)
			switch {
			case err != nil:
				rc.bad(1, "recall: %v", err)
			case n != rep.Objects:
				rc.bad(1, "recall moved %d objects, offload had moved %d", n, rep.Objects)
			case pinnedIn(cyc.reg, rep.Classes) != "":
				rc.bad(1, "offload moved pinned class %s", pinnedIn(cyc.reg, rep.Classes))
			case !rc.gold.equal("live_apps.offload_objects", int64(rep.Objects)) ||
				!rc.gold.equal("live_apps.offload_classes", int64(len(rep.Classes))):
				rc.bad(1, "offload moved %d objects of %d classes, golden differs", rep.Objects, len(rep.Classes))
			default:
				rc.ok(1)
				offloadUs = append(offloadUs, float64(t1.Sub(t0))/1e3)
				cyclesPerS = append(cyclesPerS, 1/t2.Sub(t0).Seconds())
			}
			return nil
		})
	}

	if err := rc.eachEpoch(epochs, build, measure, closeCyc); err != nil {
		return err
	}
	var allAttach []float64
	for i, app := range liveApps {
		if len(runs[i]) == 0 {
			return fmt.Errorf("live_apps: no successful %s run", app.name)
		}
		rc.slot(app.slot, runs[i])
		allAttach = append(allAttach, attach[i]...)
	}
	rc.extra("attach_us_p50", "us", allAttach)
	if len(offloadUs) == 0 {
		return fmt.Errorf("live_apps: no successful offload cycle")
	}
	rc.slot(mOpD, offloadUs)
	rc.slot(mRate, cyclesPerS)
	return nil
}
