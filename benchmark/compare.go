package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one metric on one workload between two reports.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

type comparison struct {
	Old, New      float64
	Worse         float64 // share of Old by which New is worse; negative when better
	Spread, Bound float64
	Verdict       string
}

// worseBy is the share of old by which new is worse, in the metric's
// own direction.
func worseBy(old, new float64, better string) float64 {
	if old == 0 {
		return 0
	}
	if better == "higher" {
		return (old - new) / math.Abs(old)
	}
	return (new - old) / math.Abs(old)
}

// separated reports whether every run on one side reads better than
// every run on the other.
func separated(good, bad []float64, better string) bool {
	if len(good) == 0 || len(bad) == 0 {
		return false
	}
	for _, g := range good {
		for _, b := range bad {
			if worseBy(b, g, better) >= 0 {
				return false
			}
		}
	}
	return true
}

// judge applies the rule of the choosing-metrics guide: a median worse
// by more than the bound is a regression; where the run-to-run spread is
// wider than the bound the metric is unresolved rather than unchanged,
// unless the runs of one side all beat the runs of the other.
func judge(old, new *reportMetric, better string, bound float64) comparison {
	c := comparison{
		Old: old.Value, New: new.Value, Bound: bound,
		Worse:  worseBy(old.Value, new.Value, better),
		Spread: math.Max(old.spread(), new.spread()),
	}
	switch {
	case separated(new.Runs, old.Runs, better) && c.Worse < 0:
		c.Verdict = verdictImproved
	case separated(old.Runs, new.Runs, better) && c.Worse > bound:
		c.Verdict = verdictRegressed
	case c.Spread > bound:
		c.Verdict = verdictUnresolved
	case c.Worse > bound:
		c.Verdict = verdictRegressed
	default:
		c.Verdict = verdictUnchanged
	}
	return c
}

// compareReports prints one row per end-to-end metric and workload and
// returns how many regressed. With strict set — the self-check — any
// disagreement beyond the bound counts, in either direction, and so
// does an exact count that differs.
func compareReports(w io.Writer, m manifest, old, new *report, strict bool) int {
	bad := 0
	fmt.Fprintf(w, "%-12s %-40s %16s %16s %-6s %9s %8s %7s  %s\n", "workload", "metric [slot]", "old", "new", "unit", "worse", "spread", "bound", "verdict")
	for _, wl := range m.Workloads {
		ow, nw := old.workload(wl.Name), new.workload(wl.Name)
		if ow == nil || nw == nil {
			fmt.Fprintf(w, "%-12s missing from one report\n", wl.Name)
			bad++
			continue
		}
		for _, d := range m.EndToEnd {
			om, nm := ow.metric(d.Name), nw.metric(d.Name)
			if om == nil || nm == nil {
				fmt.Fprintf(w, "%-12s %-40s missing from one report\n", wl.Name, d.Name)
				bad++
				continue
			}
			c := judge(om, nm, d.Better, d.Bound)
			if strict && math.Abs(c.Worse) > d.Bound {
				c.Verdict = verdictRegressed
			}
			if c.Verdict == verdictRegressed {
				bad++
			}
			label, unit, k := shown(nm.Name, nm.Unit, nm.Alias)
			fmt.Fprintf(w, "%-12s %-40s %16.4f %16.4f %-6s %+8.1f%% %7.1f%% %6.0f%%  %s\n",
				wl.Name, label, c.Old*k, c.New*k, unit, c.Worse*100, c.Spread*100, c.Bound*100, c.Verdict)
		}
		if nw.FailedFrac > ow.FailedFrac || (strict && nw.Failed+ow.Failed > 0) {
			fmt.Fprintf(w, "%-12s failed_frac %.6f -> %.6f  regressed\n", wl.Name, ow.FailedFrac, nw.FailedFrac)
			bad++
		}
		for _, d := range perLayer {
			om, nm := ow.metric(d.Name), nw.metric(d.Name)
			if om == nil || nm == nil {
				continue
			}
			if d.Exact && om.Value != nm.Value {
				fmt.Fprintf(w, "%-12s %-34s exact count %v -> %v  differs\n", wl.Name, d.Name, om.Value, nm.Value)
				if strict {
					bad++
				}
			}
		}
	}
	return bad
}

func compareFiles(w io.Writer, oldPath, newPath string) (int, error) {
	m, err := loadManifest()
	if err != nil {
		return 2, err
	}
	old, err := readReport(oldPath)
	if err != nil {
		return 2, err
	}
	new, err := readReport(newPath)
	if err != nil {
		return 2, err
	}
	if bad := compareReports(w, m, old, new, false); bad > 0 {
		return 1, fmt.Errorf("%d regressions", bad)
	}
	return 0, nil
}

// selfcheck measures the same build twice and fails if the two sets
// disagree beyond the benchmark's own bounds: the test that the bounds
// are wider than this host's noise.
func selfcheck(ctx context.Context, o options) (int, error) {
	m, err := loadManifest()
	if err != nil {
		return 2, err
	}
	o.trace = 1 // the exact counts come from the traced run
	a, err := runAll(ctx, o, "selfcheck-a.json")
	if err != nil {
		return 1, err
	}
	b, err := runAll(ctx, o, "selfcheck-b.json")
	if err != nil {
		return 1, err
	}
	if bad := compareReports(os.Stdout, m, a, b, true); bad > 0 {
		return 1, fmt.Errorf("self-check: %d metrics disagree between two sets of runs of the same build", bad)
	}
	fmt.Println("self-check: both sets agree within every bound, failed_frac 0, exact counts identical")
	return 0, nil
}
