// Command benchmark is the repository's one benchmark: five workloads
// that run the platform end to end — live client and surrogate over
// loopback TCP, small and bulk RPC, the repartitioning loop, emulator
// replay — plus a traced run that times every layer from outside and
// reconciles the per-layer budget with the end-to-end numbers.
//
// The driver's contract (BENCHMARK.json) runs one workload per process:
//
//	bash benchmark/run.sh --workload rpc_small --seed 7 --seconds 16 --trace 0
//
// and reads the JSON object on the last line of standard output. Without
// -workload the program runs every workload three times and writes a
// report with its environment to the -out directory. All traffic is
// loopback TCP or in-process; load is closed-loop from this one process,
// one caller goroutine or nproc (at most two), on one connection per
// client, at the process's own GOMAXPROCS.
// README.md in this directory explains every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
)

type options struct {
	workload     string
	seed         int64
	seconds      float64
	trace        int
	out          string
	quick        bool
	compare      bool
	selfcheck    bool
	updateGolden bool
	manifest     bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (empty: run all and write a report)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", defaultRunSeconds, "measuring time of one run of one workload")
	flag.IntVar(&o.trace, "trace", 0, "1 records spans and reports per-layer metrics; 0 reports end-to-end metrics")
	flag.StringVar(&o.out, "out", ".bench_build/out", "directory for reports and span files")
	flag.BoolVar(&o.quick, "quick", false, "smoke-test scale: every phase runs its minimum iteration count")
	flag.BoolVar(&o.compare, "compare", false, "compare two reports: -compare old.json new.json")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run everything twice on this build and compare the two sets")
	flag.BoolVar(&o.updateGolden, "update-golden", false, "regenerate "+goldenPath)
	flag.BoolVar(&o.manifest, "manifest", false, "print BENCHMARK.json as the declaration tables define it")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code, err := run(ctx, o, flag.Args())
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run(ctx context.Context, o options, args []string) (int, error) {
	switch {
	case o.manifest:
		b, err := buildManifest().encode()
		if err != nil {
			return 1, err
		}
		_, err = os.Stdout.Write(b)
		return 0, err
	case o.compare:
		if len(args) != 2 {
			return 2, fmt.Errorf("-compare needs two report files: old.json new.json")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case o.updateGolden:
		return 0, updateGolden(ctx, o)
	case o.selfcheck:
		return selfcheck(ctx, o)
	case o.workload != "":
		return 0, runOne(ctx, o)
	default:
		_, err := runAll(ctx, o, "report.json")
		return 0, err
	}
}

// runOne is the driver's entry: one workload, one run, one JSON line.
func runOne(ctx context.Context, o options) error {
	wl := workloadByName(o.workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	gold, err := loadGolden(false)
	if err != nil {
		return err
	}
	traced := o.trace != 0
	var rc *runCtx
	if traced {
		rc, err = runTraced(ctx, wl, o.seed, o.seconds, o.quick, gold)
	} else {
		rc, err = runUntraced(ctx, wl, o.seed, o.seconds, o.quick, gold)
	}
	if err != nil {
		return err
	}
	rc.print(os.Stdout)
	if traced {
		fmt.Println("span budget (self = duration minus child spans):")
		printBudget(os.Stdout, rc.rec.budget())
		path, err := rc.rec.write(o.out, wl.Name, o.seed)
		if err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans written to %s (%d dropped past the in-memory cap)\n", path, rc.rec.dropped())
	}
	rl, err := rc.resultLine(traced)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rl)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// updateGolden observes every pinned quantity once, at smoke-test
// scale, and rewrites the golden file.
func updateGolden(ctx context.Context, o options) error {
	gold, err := loadGolden(true)
	if err != nil {
		return err
	}
	for i := range workloads {
		wl := &workloads[i]
		rc, err := runTraced(ctx, wl, o.seed, o.seconds, true, gold)
		if err != nil {
			return err
		}
		if rc.failed != 0 {
			rc.print(os.Stderr)
			return fmt.Errorf("%s failed while observing goldens", wl.Name)
		}
	}
	if err := gold.write(goldenPath); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d entries)\n", goldenPath, len(gold.got))
	return nil
}
