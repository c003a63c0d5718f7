package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aide/internal/apps"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/policy"
	"aide/internal/trace"
	"aide/internal/vm"
)

// dirtyFrac is the share of edges one round of churn touches.
const dirtyFrac = 0.05

// partitioner holds one monitored application and both front-ends to
// the partitioning heuristic: the from-scratch path Client.Offload
// takes, and the incremental path that patches a maintained matrix from
// graph deltas. Keeping them side by side stops a gain for one from
// hiding a loss in the other while ROADMAP item 3 collapses them.
type partitioner struct {
	mon  *monitor.Monitor
	heap int64
	pol  policy.MemoryPolicy

	// pairs are the class pairs churn draws from: the graph's edges.
	pairs [][2]string

	scratch mincut.Scratch
	inc     mincut.Incremental
	mem     []int64 // live bytes per class, maintained from deltas

	warm, full, rejected, rounds int
}

func newPartitioner(mon *monitor.Monitor, heap int64, minFree float64) *partitioner {
	p := &partitioner{mon: mon, heap: heap, pol: policy.MemoryPolicy{MinFreeFraction: minFree}}
	g := mon.Graph()
	for _, e := range g.Edges() {
		p.pairs = append(p.pairs, [2]string{g.Node(e.A).Name, g.Node(e.B).Name})
	}
	return p
}

// churn touches dirtyFrac of the edges with new invocations on existing
// pairs: the steady state of a running application.
func (p *partitioner) churn(rng *rand.Rand) {
	touches := int(float64(len(p.pairs)) * dirtyFrac)
	if touches < 1 {
		touches = 1
	}
	for t := 0; t < touches; t++ {
		pr := p.pairs[rng.Intn(len(p.pairs))]
		p.mon.OnInvoke(pr[0], pr[1], "m", 0, int64(64+rng.Intn(512)), 32, 0, false, false)
	}
}

// fromScratch is the path Client.Offload takes up to the decision:
// snapshot, dense matrix, candidates, policy.
func (p *partitioner) fromScratch(tk *track) (policy.Decision, error) {
	id := tk.begin("repartition.full")
	defer tk.end(id)
	s := tk.begin("monitor.graph")
	g := p.mon.Graph()
	tk.end(s)
	s = tk.begin("mincut.fromgraph")
	in := p.scratch.FromGraph(g, graph.BytesWeight)
	tk.end(s)
	s = tk.begin("mincut.candidates")
	cands, err := p.scratch.Candidates(in)
	tk.end(s)
	if err != nil {
		return policy.Decision{}, err
	}
	s = tk.begin("policy.choose")
	dec, err := p.pol.Choose(g, p.heap, cands)
	tk.end(s)
	return dec, err
}

// incremental is the delta path: pull what changed, patch the matrix,
// refine the committed partition, decide on dense memory, commit.
func (p *partitioner) incremental(tk *track) (policy.Decision, error) {
	id := tk.begin("repartition.delta")
	defer tk.end(id)
	s := tk.begin("monitor.delta")
	d := p.mon.Delta(p.inc.Epoch())
	tk.end(s)
	s = tk.begin("mincut.inc_update")
	for i := range d.Nodes {
		nd := &d.Nodes[i]
		for int(nd.ID) >= len(p.mem) {
			p.mem = append(p.mem, 0)
		}
		p.mem[nd.ID] = nd.Memory
	}
	p.inc.Update(d, graph.BytesWeight)
	tk.end(s)
	s = tk.begin("mincut.inc_candidates")
	cands, err := p.inc.Candidates()
	tk.end(s)
	if err != nil {
		return policy.Decision{}, err
	}
	if p.inc.WasFull() {
		p.full++
	} else {
		p.warm++
	}
	s = tk.begin("policy.choose_dense")
	dec, err := p.pol.ChooseDense(p.mem, p.heap, cands)
	if err == nil {
		p.inc.Commit(mincut.Candidate{InClient: dec.InClient, CutWeight: dec.CutWeight, Offloaded: dec.OffloadClasses})
	} else if len(cands) > 0 {
		p.inc.Commit(cands[len(cands)-1])
	}
	tk.end(s)
	return dec, err
}

// sameDecision is the per-round correctness gate: both front-ends must
// keep the same classes on the client, or both must decline.
func sameDecision(a policy.Decision, aerr error, b policy.Decision, berr error) bool {
	if (aerr != nil) != (berr != nil) {
		return false
	}
	if aerr != nil {
		return true
	}
	if a.OffloadClasses != b.OffloadClasses || a.OffloadBytes != b.OffloadBytes || len(a.InClient) != len(b.InClient) {
		return false
	}
	for i := range a.InClient {
		if a.InClient[i] != b.InClient[i] {
			return false
		}
	}
	return true
}

// round is one churn batch followed by both timed paths. The scratch
// path re-derives everything from the batch; the incremental path sees
// exactly this batch in its next delta. A round on which the two
// decisions differ is an error: a wrong answer, not a timing.
func (p *partitioner) round(tk *track, rng *rand.Rand) (fullUs, deltaUs float64, err error) {
	p.churn(rng)
	tk.nextReq()
	t0 := time.Now()
	fd, ferr := p.fromScratch(tk)
	t1 := time.Now()
	dd, derr := p.incremental(tk)
	t2 := time.Now()
	p.rounds++
	if ferr != nil {
		p.rejected++
	}
	if !sameDecision(fd, ferr, dd, derr) {
		return 0, 0, fmt.Errorf("round %d: from-scratch (%d classes, err %v) and incremental (%d classes, err %v) decisions differ",
			p.rounds, fd.OffloadClasses, ferr, dd.OffloadClasses, derr)
	}
	return float64(t1.Sub(t0)) / 1e3, float64(t2.Sub(t1)) / 1e3, nil
}

// roundsFor runs churned rounds for d (at least min) and gates each.
func (p *partitioner) roundsFor(ctx context.Context, rc *runCtx, tk *track, rng *rand.Rand, d time.Duration, min int, what string) (fullUs, deltaUs []float64, err error) {
	err = rc.until(ctx, d, min, func(int) error {
		f, dl, rerr := p.round(tk, rng)
		if rerr != nil {
			rc.bad(1, "%s %v", what, rerr)
			return nil
		}
		rc.ok(1)
		fullUs = append(fullUs, f)
		deltaUs = append(deltaUs, dl)
		return nil
	})
	return fullUs, deltaUs, err
}

// feedTrace replays a recorded trace into a monitor, one source.
func feedTrace(m *monitor.Monitor, tr *trace.Trace) {
	for i := range tr.Events {
		m.Feed(tr, &tr.Events[i])
	}
}

// javaNotePartitioner is the JavaNote execution graph (138 classes) at
// the paper's 6 MiB client heap and initial policy.
func javaNotePartitioner(ts *traceSet) (*partitioner, error) {
	tr, err := ts.suite.Trace("JavaNote")
	if err != nil {
		return nil, err
	}
	m := monitor.New(nil)
	feedTrace(m, tr)
	spec, err := apps.ByName("JavaNote")
	if err != nil {
		return nil, err
	}
	return newPartitioner(m, spec.EmuHeap, policy.InitialParams().MinFreeFraction), nil
}

const syntheticClasses = 1000

// syntheticPartitioner is a seeded 1000-class application — a ring of
// hot neighbours plus random chords, the usual shape of class-interaction
// graphs — in the regime PR 8's incremental path was built for.
func syntheticPartitioner(rng *rand.Rand) *partitioner {
	n := syntheticClasses
	class := func(i int) string { return fmt.Sprintf("C%04d", ((i%n)+n)%n) }
	m := monitor.New(nil)
	for i := 0; i < n; i++ {
		m.OnCreate(class(i), vm.ObjectID(i), int64(1024+rng.Intn(4096)))
		m.OnInvoke(class(i), class(i+1), "m", 0, int64(64+rng.Intn(512)), 32, time.Microsecond, false, false)
		for k := 0; k < 4; k++ {
			if j := rng.Intn(n); j != i {
				m.OnAccess(class(i), class(j), 0, int64(16+rng.Intn(256)))
			}
		}
	}
	return newPartitioner(m, int64(n)*16*1024, 0.05)
}

// runRepartition is the repartition workload.
func runRepartition(ctx context.Context, rc *runCtx) error {
	rng := rand.New(rand.NewSource(rc.seed))
	var evPerS, fullUs, deltaUs, bigFullUs, bigDeltaUs []float64
	warm, full := 0, 0

	var ts *traceSet
	var traces []*trace.Trace
	var jn, syn *partitioner
	build := func() error {
		var err error
		if ts, err = rc.recordTraces(); err != nil {
			return err
		}
		traces = traces[:0]
		for _, spec := range apps.All() {
			tr, err := ts.suite.Trace(spec.Name)
			if err != nil {
				return err
			}
			traces = append(traces, tr)
		}
		if jn, err = javaNotePartitioner(ts); err != nil {
			return err
		}
		syn = syntheticPartitioner(rand.New(rand.NewSource(rc.seed)))
		// Prime both pipelines: the cold start is the same full pass for
		// both, and is not what a running platform pays per trigger.
		if _, _, err = jn.round(rc.main, rng); err == nil {
			_, _, err = syn.round(rc.main, rng)
		}
		return err
	}

	measure := func() error {
		// Phase 1: ingest all five traces into a fresh monitor, one source.
		if err := rc.until(ctx, rc.phase(0.25), 1, func(int) error {
			rc.main.nextReq()
			m := monitor.New(nil)
			settle()
			id := rc.main.begin("monitor.feed")
			t0 := time.Now()
			for _, tr := range traces {
				feedTrace(m, tr)
			}
			d := time.Since(t0)
			rc.main.end(id)
			if got := m.Events(); !rc.gold.equal("repartition.ingest_events", got) {
				rc.bad(1, "monitor consumed %d events per pass, golden differs", got)
				return nil
			}
			rc.ok(1)
			evPerS = append(evPerS, float64(ts.events)/d.Seconds())
			return nil
		}); err != nil {
			return err
		}

		// Phase 2: the JavaNote graph. Phase 3: the 1000-class graph.
		f, d, err := jn.roundsFor(ctx, rc, rc.main, rng, rc.phase(0.4), 8, "javanote")
		if err != nil {
			return err
		}
		fullUs, deltaUs = append(fullUs, f...), append(deltaUs, d...)
		f, d, err = syn.roundsFor(ctx, rc, rc.main, rng, rc.phase(0.35), 3, "n1000")
		bigFullUs, bigDeltaUs = append(bigFullUs, f...), append(bigDeltaUs, d...)
		warm, full = warm+jn.warm, full+jn.full
		return err
	}

	if err := rc.eachEpoch(epochs, build, measure, func() { ts, traces, jn, syn = nil, nil, nil, nil }); err != nil {
		return err
	}
	if len(evPerS) == 0 {
		return fmt.Errorf("repartition: no successful ingest pass")
	}
	if len(fullUs) == 0 || len(bigFullUs) == 0 {
		return fmt.Errorf("repartition: no round on which both front-ends agreed")
	}
	rc.slot(mRate, evPerS)
	rc.slot(mOpA, fullUs)
	rc.slot(mOpB, deltaUs)
	rc.slot(mOpC, bigDeltaUs)
	rc.slot(mOpD, bigFullUs)
	rc.extra("inc_warm_frac", "ratio", []float64{float64(warm) / float64(warm+full)})
	return nil
}
