// Command aide-bench regenerates every table and figure of the paper's
// evaluation (§5) and prints paper-style rows alongside the paper's
// published values.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"aide/internal/experiments"
)

func main() {
	full := flag.Bool("full", false, "run the full Figure 7 policy sweep (slow)")
	only := flag.String("only", "", "run a single experiment ("+strings.Join(stepNames(), ", ")+")")
	smoke := flag.Bool("smoke", false, "shrink benchmark axes to CI-sized single passes")
	dot := flag.String("dot", "", "directory to write Figure 5 execution-graph DOT files into")
	parallel := flag.Int("parallel", 0, "worker-pool width for experiment replays (0 = GOMAXPROCS, 1 = serial; output is bit-identical at any width)")
	flag.Parse()
	if err := run(*full, *smoke, *only, *dot, *parallel); err != nil {
		fmt.Fprintln(os.Stderr, "aide-bench:", err)
		os.Exit(1)
	}
}

func section(title, paper string) {
	fmt.Printf("\n== %s ==\n   paper: %s\n", title, paper)
}

type step struct {
	name string
	f    func() error
}

// stepNames lists what -only accepts: the steps table's names, whose
// closures are built but not run here, plus the diag dump.
func stepNames() []string {
	var names []string
	for _, st := range steps(nil, false, false, "") {
		names = append(names, st.name)
	}
	return append(names, "diag")
}

// checkOnly rejects an -only value that names no step, so a script
// still calling a removed study fails instead of passing vacuously.
func checkOnly(only string) error {
	if only == "" {
		return nil
	}
	names := stepNames()
	for _, n := range names {
		if n == only {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q for -only; valid: %s", only, strings.Join(names, ", "))
}

func run(full, smoke bool, only, dotDir string, parallel int) error {
	if err := checkOnly(only); err != nil {
		return err
	}
	s := experiments.NewSuite()
	s.Parallelism = parallel

	start := time.Now()
	if only == "diag" {
		return diag(s)
	}

	artifact := func(name string, f func() error) error {
		if only != "" && only != name {
			return nil
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("   [%s: %.2fs wall]\n", name, time.Since(t0).Seconds())
		return nil
	}

	// Warming the trace cache up front parallelizes the recording of all
	// five applications, the most expensive serial stretch of a fresh
	// suite; every later artifact then replays warm traces.
	if only == "" {
		if err := artifact("warmup", func() error { return s.Warm() }); err != nil {
			return err
		}
	}

	for _, st := range steps(s, full, smoke, dotDir) {
		if err := artifact(st.name, st.f); err != nil {
			return err
		}
	}
	fmt.Printf("\n(total %v, parallelism %d)\n", time.Since(start).Round(time.Millisecond), parallel)
	return nil
}

// steps is the one table of experiments: run order, the -only names and
// the flag's help text all come from it.
func steps(s *experiments.Suite, full, smoke bool, dotDir string) []step {
	return []step{
		{"table1", func() error {
			section("Table 1: study applications", "five Java applications with varied resource demands")
			for _, r := range experiments.Table1() {
				fmt.Printf("%-9s %-32s %s\n", r.Name, r.Description, r.Profile)
			}
			return nil
		}},
		{"table2", func() error {
			section("Table 2: JavaNote execution metrics",
				"classes 134/138/138, objects 1230/2810/6808, interactions 1126/1190/1186532")
			r, err := s.Table2()
			if err != nil {
				return err
			}
			fmt.Print(r)
			return nil
		}},
		{"figure5", func() error {
			section("Figure 5: JavaNote OOM rescue", "~90% of heap offloaded, ~100KB/s predicted, heuristic ~0.1s")
			r, err := s.Figure5()
			if err != nil {
				return err
			}
			fmt.Println(r)
			if dotDir != "" {
				before := filepath.Join(dotDir, "figure5a.dot")
				after := filepath.Join(dotDir, "figure5b.dot")
				if err := os.WriteFile(before, []byte(r.DOTBefore), 0o644); err != nil {
					return err
				}
				if err := os.WriteFile(after, []byte(r.DOTAfter), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s and %s (render with graphviz: neato -Tpng)\n", before, after)
			}
			return nil
		}},
		{"figure6", func() error {
			section("Figure 6: remote execution overhead (initial policy)", "JavaNote 4.8%, Dia 8.5%, Biomer 27.5%")
			rows, err := s.Figure6()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
		{"figure7", func() error {
			section("Figure 7: policy sweep", "Biomer/Dia overhead reduced 30-43%, JavaNote unchanged")
			rows, err := s.Figure7(!full)
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
		{"figure8", func() error {
			section("Figure 8: remote native invocations", "large native share for JavaNote/Dia, smaller for Biomer")
			rows, err := s.Figure8()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
		{"monitoring", func() error {
			section("Monitoring overhead", "31.59s -> 35.04s (~11%)")
			r, err := s.MonitoringOverhead()
			if err != nil {
				return err
			}
			fmt.Println(r)
			return nil
		}},
		{"figure9", func() error {
			section("Figure 9: execution time attribution", "a::f 0.12s total -> a 0.02s, b 0.10s")
			d, err := experiments.Figure9()
			if err != nil {
				return err
			}
			fmt.Println(d)
			return nil
		}},
		{"figure10", func() error {
			section("Figure 10: offloading under processing constraints",
				"Voxel/Tracer improve up to ~15% combined; Biomer declined (790s predicted vs 750s, manual 711s)")
			rows, err := s.Figure10()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
		{"ablation", func() error {
			section("Extension: partitioning-heuristic ablation (paper §8)",
				"modified MINCUT vs KL-refined vs greedy memory-density")
			rows, err := s.AblationHeuristics()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
		{"heapsweep", func() error {
			section("Extension: client heap sweep", "below the floor even offloading cannot help; with enough memory the platform never offloads")
			points, err := s.HeapSweep()
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Println(p)
			}
			return nil
		}},
		{"linksweep", func() error {
			section("Extension: link-technology sweep", "offloading viability tracks RTT more than bandwidth")
			points, err := s.LinkSweep()
			if err != nil {
				return err
			}
			for _, p := range points {
				fmt.Println(p)
			}
			return nil
		}},
		{"faults", func() error {
			section("Extension: disconnection study", "graceful degradation to local execution when the surrogate vanishes (paper §2, §7)")
			return faultsBench("BENCH_faults.json")
		}},
		{"telemetry", func() error {
			section("Extension: telemetry overhead", "disabled instrumentation must cost ≤10 ns and 0 allocs per site")
			return telemetryBench("BENCH_telemetry.json")
		}},
		{"fleet", func() error {
			section("Extension: multi-tenant fleet",
				"per-session isolation under >=100 concurrent tenants; admission, shedding, eviction across a surrogate fleet")
			return fleetBench("BENCH_fleet.json", smoke)
		}},
		{"handoff", func() error {
			section("Extension: snapshots, speculation, live handoff",
				"snapshot wire size tracks live bytes; drain blackout stays bounded under live traffic; speculation wins degraded rounds")
			return handoffBench("BENCH_handoff.json", smoke)
		}},
		{"energy", func() error {
			section("Extension: client battery drain (paper §2/§8)",
				"offloading trades CPU-seconds for radio-seconds")
			rows, err := s.EnergyStudy()
			if err != nil {
				return err
			}
			for _, r := range rows {
				fmt.Println(r)
			}
			return nil
		}},
	}
}

// diag prints calibration internals: per-application trace statistics and
// the partitioning records of the Figure 6 runs.
func diag(s *experiments.Suite) error {
	for _, name := range []string{"JavaNote", "Dia", "Biomer", "Voxel", "Tracer"} {
		t, err := s.Trace(name)
		if err != nil {
			return err
		}
		st := experiments.TraceStats(t)
		fmt.Printf("%-9s classes %3d  events %8d  interactions %8d  peakLive %5.2fMB  selfTime %7.1fs\n",
			name, len(t.Classes), len(t.Events), st.InteractionEvents,
			float64(st.PeakLiveBytes)/(1<<20), st.SelfTime.Seconds())
	}
	for _, name := range []string{"JavaNote", "Dia", "Biomer"} {
		res, err := s.DiagMemoryRun(name)
		if err != nil {
			return err
		}
		fmt.Printf("\n%s: time %.1fs exec %.1fs comm %.1fs xfer %.1fs gc %d remoteInv %d remoteNative %d remoteAcc %d\n",
			name, res.Time.Seconds(), res.ExecTime.Seconds(), res.CommTime.Seconds(),
			res.TransferTime.Seconds(), res.GCCycles, res.RemoteInvocations, res.RemoteNative, res.RemoteAccesses)
		for _, p := range res.Partitions {
			fmt.Printf("  partition@%d t=%.1fs forced=%t rejected=%t moved=%dKB classes=%d cutBytes=%dKB reason=%s\n",
				p.EventIndex, p.At.Seconds(), p.Forced, p.Rejected, p.TransferBytes/1024,
				len(p.OffloadedClasses), p.Decision.CutBytes/1024, p.RejectedReason)
			if len(p.OffloadedClasses) > 0 && len(p.OffloadedClasses) <= 140 {
				fmt.Printf("  offloaded: %v\n", p.OffloadedClasses)
			}
		}
	}
	return nil
}
