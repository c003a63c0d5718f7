package main

import (
	"context"
	"os"
	"regexp"
	"testing"
)

// The smoke tests pin the contract, not the numbers: BENCHMARK.json is
// what the declaration tables generate, it stays inside the driver's
// limits, and a run emits exactly the metrics it declares. Nothing here
// asserts a timing or sleeps.

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestManifestMatchesDeclarations(t *testing.T) {
	want, err := buildManifest().encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCHMARK.json differs from manifest.go; regenerate it with: bash benchmark/run.sh -manifest > BENCHMARK.json")
	}
}

func TestManifestLimits(t *testing.T) {
	m := buildManifest()
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range m.EndToEnd {
		name("end-to-end", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
		if d.Name == mSetup && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, d := range m.PerLayer {
		name("per-layer", d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric named that it should move", d.Name)
		}
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			if d.Name != mSetup && w.Alias[d.Name].Name == "" {
				t.Errorf("workload %s does not say what it reports as %s", w.Name, d.Name)
			}
		}
	}
}

// TestQuickRunsEmitDeclaredMetrics runs every workload at smoke-test
// scale and checks that the driver's result line carries exactly the
// declared metrics and that every correctness gate passed.
func TestQuickRunsEmitDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the five workloads; skipped in -short mode")
	}
	gold, err := loadGolden(false)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	check := func(t *testing.T, rc *runCtx, traced bool, table []metricDecl) {
		t.Helper()
		rl, err := rc.resultLine(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !rl.Correct || rl.Failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", rc.wl.Name, rl.Failed, rl.Attempted, rc.notes)
		}
		if len(rl.Metrics) != len(table) {
			t.Errorf("%s: %d metrics emitted, %d declared", rc.wl.Name, len(rl.Metrics), len(table))
		}
		for _, d := range table {
			m, ok := rl.Metrics[d.Name]
			if !ok {
				t.Errorf("%s: declared metric %s not emitted", rc.wl.Name, d.Name)
			} else if m.Unit != d.Unit {
				t.Errorf("%s: %s has unit %q, declared %q", rc.wl.Name, d.Name, m.Unit, d.Unit)
			}
		}
	}
	// Nothing here asserts a timing, so the runs may share the processors.
	for i := range workloads {
		wl := &workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			t.Parallel()
			rc, err := runUntraced(ctx, wl, 1, 0.2, true, gold)
			if err != nil {
				t.Fatal(err)
			}
			check(t, rc, false, endToEnd)
		})
	}
	// The per-layer set is the same on every workload; one traced run
	// covers it.
	t.Run("traced", func(t *testing.T) {
		t.Parallel()
		rc, err := runTraced(ctx, workloadByName("rpc_small"), 1, 0.2, true, gold)
		if err != nil {
			t.Fatal(err)
		}
		check(t, rc, true, perLayer)
	})
}
