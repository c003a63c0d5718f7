package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"aide/internal/emulator"
	"aide/internal/experiments"
)

// The emulator's simulated statistics are deterministic, so every pass
// folds each emulator.Result and each rendered figure row into a digest
// that must equal the committed golden: a change meant only to make the
// emulator faster has to leave every simulated number identical.

var (
	memoryDiagApps = []string{"JavaNote", "Dia", "Biomer"}
	cpuDiagApps    = []string{"Voxel", "Tracer", "Biomer"}
)

// cpuVariants are the Figure-10 bars replayed per CPU-study
// application: the forced initial offload and the combined (stateless
// native + array granularity) policy. The Native-only and Array-only
// bars run inside Figure10 itself.
var cpuVariants = []struct{ stateless, array, forced bool }{
	{forced: true},
	{stateless: true, array: true},
}

// emuJob is one emulator call of a pass; it returns how many trace
// events it replayed (0 where the suite does not expose the count).
type emuJob struct {
	name string
	run  func(s *experiments.Suite, h hash.Hash) (events int64, err error)
}

func digestResult(h hash.Hash, label string, r *emulator.Result) {
	fmt.Fprintf(h, "%s %+v\n", label, *r)
}

func memoryDiagJobs() []emuJob {
	var jobs []emuJob
	for _, app := range memoryDiagApps {
		jobs = append(jobs, emuJob{"memory/" + app, func(s *experiments.Suite, h hash.Hash) (int64, error) {
			r, err := s.DiagMemoryRun(app)
			if err != nil {
				return 0, err
			}
			digestResult(h, "memory/"+app, r)
			return r.Events, nil
		}})
	}
	return jobs
}

func cpuDiagJobs() []emuJob {
	var jobs []emuJob
	for _, app := range cpuDiagApps {
		for _, v := range cpuVariants {
			label := fmt.Sprintf("cpu/%s/%v-%v-%v", app, v.stateless, v.array, v.forced)
			jobs = append(jobs, emuJob{label, func(s *experiments.Suite, h hash.Hash) (int64, error) {
				r, err := s.DiagCPURun(app, v.stateless, v.array, v.forced)
				if err != nil {
					return 0, err
				}
				digestResult(h, label, r)
				// DiagCPURun replays the trace twice: the original run
				// that sizes the re-evaluation period, then the variant.
				return 2 * r.Events, nil
			}})
		}
	}
	return jobs
}

func memoryFigureJobs() []emuJob {
	return []emuJob{
		{"figure6", func(s *experiments.Suite, h hash.Hash) (int64, error) {
			rows, err := s.Figure6()
			for _, r := range rows {
				fmt.Fprintln(h, r.String())
			}
			return 0, err
		}},
		{"figure8", func(s *experiments.Suite, h hash.Hash) (int64, error) {
			rows, err := s.Figure8()
			for _, r := range rows {
				fmt.Fprintln(h, r.String())
			}
			return 0, err
		}},
	}
}

func cpuFigureJobs() []emuJob {
	return []emuJob{{"figure10", func(s *experiments.Suite, h hash.Hash) (int64, error) {
		rows, err := s.Figure10()
		for _, r := range rows {
			fmt.Fprintln(h, r.String())
		}
		return 0, err
	}}}
}

// runJobs runs one group of a pass, in seeded order, and digests the
// results in declaration order so the digest does not depend on the seed.
func runJobs(rc *runCtx, s *experiments.Suite, rng *rand.Rand, group string, jobs []emuJob) (time.Duration, int64, string, error) {
	id := rc.main.begin("emulator." + group)
	defer rc.main.end(id)
	hashes := make([]hash.Hash, len(jobs))
	var events int64
	settle()
	t0 := time.Now()
	for _, i := range rng.Perm(len(jobs)) {
		hashes[i] = sha256.New()
		jid := rc.main.begin("emulator." + jobs[i].name)
		n, err := jobs[i].run(s, hashes[i])
		rc.main.end(jid)
		if err != nil {
			return 0, 0, "", fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		events += n
	}
	d := time.Since(t0)
	all := sha256.New()
	for _, h := range hashes {
		all.Write(h.Sum(nil))
	}
	return d, events, hex.EncodeToString(all.Sum(nil)), nil
}

// runEmuReplay is the emu_replay workload.
func runEmuReplay(ctx context.Context, rc *runCtx) error {
	rng := rand.New(rand.NewSource(rc.seed))
	groups := []struct {
		slot, name string
		jobs       []emuJob
		us         []float64
	}{
		{slot: mOpA, name: "memory_diag", jobs: memoryDiagJobs()},
		{slot: mOpB, name: "cpu_diag", jobs: cpuDiagJobs()},
		{slot: mOpC, name: "figure6_8", jobs: memoryFigureJobs()},
		{slot: mOpD, name: "figure10", jobs: cpuFigureJobs()},
	}
	var evPerS []float64

	var ts *traceSet
	build := func() error {
		var err error
		if ts, err = rc.recordTraces(); err != nil {
			return err
		}
		// Warm-up: one short replay, so the first timed pass does not
		// pay for the emulator's first allocation of its tables.
		_, err = ts.suite.DiagMemoryRun("Dia")
		return err
	}

	// One step is one group. An epoch runs every group once and then as
	// many further ones as fit its time, beginning one group further on
	// than the epoch before, so that over a run the groups are sampled
	// alike although the long one ends most epochs. The replay rate has a
	// sample for every memory-study group followed by a CPU-study group:
	// the two whose event counts the suite exposes.
	var memEvents int64
	var memTime time.Duration
	step := func(i int) error {
		if i == 0 {
			memTime = 0
		}
		rc.main.nextReq()
		g := &groups[(rc.epoch+i)%len(groups)]
		d, n, digest, err := runJobs(rc, ts.suite, rng, g.name, g.jobs)
		if err != nil {
			return err
		}
		if !rc.gold.equal("emu_replay."+g.name+"_digest", digest) {
			rc.bad(len(g.jobs), "%s: simulated results differ from the golden digest (got %s)", g.name, digest)
			return nil
		}
		rc.ok(len(g.jobs))
		g.us = append(g.us, float64(d)/1e3)
		switch {
		case g.slot == mOpA:
			memEvents, memTime = n, d
		case g.slot == mOpB && memTime > 0:
			evPerS = append(evPerS, float64(memEvents+n)/(memTime+d).Seconds())
			memTime = 0
		}
		return nil
	}

	// An epoch runs one group more than a round, so that a memory-study
	// group is followed by a CPU-study group wherever the round began.
	if err := rc.eachEpoch(emuEpochs, build, func() error { return rc.until(ctx, rc.phase(1), len(groups)+1, step) }, func() { ts = nil }); err != nil {
		return err
	}
	for _, g := range groups {
		if len(g.us) == 0 {
			return fmt.Errorf("emu_replay: no pass of %s matched the golden", g.name)
		}
		rc.slot(g.slot, g.us)
	}
	if len(evPerS) == 0 {
		return fmt.Errorf("emu_replay: no events replayed")
	}
	rc.slot(mRate, evPerS)
	return nil
}
