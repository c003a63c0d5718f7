package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envelope is the environment every result file carries, so that two
// files can be told apart before their numbers are compared.
type envelope struct {
	Commit     string    `json:"git_commit"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	CPUModel   string    `json:"cpu_model"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds_per_run"`
	Repeats    int       `json:"repeats"`
	Quick      bool      `json:"quick,omitempty"`
	Network    string    `json:"network"`
	Load       string    `json:"load"`
	Started    time.Time `json:"started"`
}

func newEnvelope(o options) envelope {
	e := envelope{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Repeats: repeats, Quick: o.quick,
		Network: "loopback TCP (127.0.0.1) and in-process channels only; no real link is crossed",
		Load:    fmt.Sprintf("closed loop from one process at its own GOMAXPROCS: 1 caller goroutine, or %d in the multi-caller phases, on one connection per client", callers),
		Started: time.Now().UTC(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// reportMetric is one metric over the repeats of one workload: the
// reported value is the median of the runs' values.
type reportMetric struct {
	Name  string `json:"name"`
	Alias *alias `json:"alias,omitempty"`
	Unit  string `json:"unit"`

	Value float64 `json:"value"`
	summary
	Runs []float64 `json:"runs"`

	// SamplesPerRun is how many samples stood behind the first run's
	// value.
	SamplesPerRun int `json:"samples_per_run"`
}

type workloadReport struct {
	Name       string         `json:"name"`
	Seeds      []int64        `json:"seeds"`
	Attempted  int64          `json:"attempted"`
	Failed     int64          `json:"failed"`
	FailedFrac float64        `json:"failed_frac"`
	EndToEnd   []reportMetric `json:"end_to_end"`
	Extras     []reportMetric `json:"extras,omitempty"`
	PerLayer   []reportMetric `json:"per_layer,omitempty"`
	Budget     []layerBudget  `json:"span_budget,omitempty"`
	Notes      []string       `json:"failures,omitempty"`
}

type report struct {
	Envelope  envelope         `json:"environment"`
	Workloads []workloadReport `json:"workloads"`
}

func (r *report) workload(name string) *workloadReport {
	for i := range r.Workloads {
		if r.Workloads[i].Name == name {
			return &r.Workloads[i]
		}
	}
	return nil
}

func (w *workloadReport) metric(name string) *reportMetric {
	for _, list := range [][]reportMetric{w.EndToEnd, w.PerLayer} {
		for i := range list {
			if list[i].Name == name {
				return &list[i]
			}
		}
	}
	return nil
}

// foldRuns turns the same metric of several runs into one report row.
func foldRuns(runs []metricValue) reportMetric {
	vals := make([]float64, len(runs))
	for i, r := range runs {
		vals[i] = r.Value
	}
	s := summarize(vals)
	return reportMetric{
		Name: runs[0].Name, Alias: runs[0].Alias, Unit: runs[0].Unit,
		Value: s.Median, summary: s, Runs: vals, SamplesPerRun: runs[0].N,
	}
}

func foldTable(rcs []*runCtx, table []metricDecl, pick func(*runCtx) map[string]metricValue) []reportMetric {
	var out []reportMetric
	for _, d := range table {
		var runs []metricValue
		for _, rc := range rcs {
			if m, ok := pick(rc)[d.Name]; ok {
				runs = append(runs, m)
			}
		}
		if len(runs) > 0 {
			out = append(out, foldRuns(runs))
		}
	}
	return out
}

// repeats is how many untraced runs of a workload stand behind a report
// row; the row's value is their median.
const repeats = 3

// runAll runs every workload repeats times with spans off — the
// median of the repeats is the reported end-to-end value — then, with
// -trace 1, once more traced for the per-layer metrics, and writes the
// report under o.out.
func runAll(ctx context.Context, o options, file string) (*report, error) {
	gold, err := loadGolden(false)
	if err != nil {
		return nil, err
	}
	rep := &report{Envelope: newEnvelope(o)}
	for i := range workloads {
		wl := &workloads[i]
		wr := workloadReport{Name: wl.Name}
		var rcs []*runCtx
		for r := 0; r < repeats; r++ {
			seed := o.seed + int64(r)
			rc, err := runUntraced(ctx, wl, seed, o.seconds, o.quick, gold)
			if err != nil {
				return nil, err
			}
			rc.print(os.Stdout)
			rcs = append(rcs, rc)
			wr.Seeds = append(wr.Seeds, seed)
			wr.Attempted += rc.attempted
			wr.Failed += rc.failed
			wr.Notes = append(wr.Notes, rc.notes...)
		}
		wr.EndToEnd = foldTable(rcs, endToEnd, func(rc *runCtx) map[string]metricValue { return rc.e2e })
		for i := range rcs[0].extras {
			var runs []metricValue
			for _, rc := range rcs {
				if i < len(rc.extras) {
					runs = append(runs, rc.extras[i])
				}
			}
			wr.Extras = append(wr.Extras, foldRuns(runs))
		}
		if o.trace != 0 {
			rc, err := runTraced(ctx, wl, o.seed, o.seconds, o.quick, gold)
			if err != nil {
				return nil, err
			}
			rc.print(os.Stdout)
			fmt.Println("span budget (self = duration minus child spans):")
			wr.Budget = rc.rec.budget()
			printBudget(os.Stdout, wr.Budget)
			if _, err := rc.rec.write(o.out, wl.Name, o.seed); err != nil {
				return nil, fmt.Errorf("write spans: %w", err)
			}
			wr.PerLayer = foldTable([]*runCtx{rc}, perLayer, func(rc *runCtx) map[string]metricValue { return rc.layer })
			wr.Attempted += rc.attempted
			wr.Failed += rc.failed
			wr.Notes = append(wr.Notes, rc.notes...)
			forgetTraces()
		}
		wr.FailedFrac = failedFrac(wr.Attempted, wr.Failed)
		rep.Workloads = append(rep.Workloads, wr)
	}
	rep.print(os.Stdout)
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(o.out, file)
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("report written to %s\n", path)
	return rep, nil
}

func (r *report) print(w io.Writer) {
	e := r.Envelope
	fmt.Fprintf(w, "\n== report: commit %s, %s %s/%s, %q, nproc %d, GOMAXPROCS %d, seed %d, %gs x %d repeats\n",
		e.Commit, e.GoVersion, e.GOOS, e.GOARCH, e.CPUModel, e.NProc, e.GOMAXPROCS, e.Seed, e.Seconds, e.Repeats)
	fmt.Fprintf(w, "== %s; %s\n", e.Network, e.Load)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "%s: attempted %d failed %d failed_frac %.6f\n", wr.Name, wr.Attempted, wr.Failed, wr.FailedFrac)
		for _, list := range [][]reportMetric{wr.EndToEnd, wr.Extras, wr.PerLayer} {
			for _, m := range list {
				label, unit, k := shown(m.Name, m.Unit, m.Alias)
				fmt.Fprintf(w, "  %-46s %16.4f %-6s runs=%d p25=%.4f p75=%.4f samples/run=%d\n",
					label, m.Value*k, unit, m.N, m.P25*k, m.P75*k, m.SamplesPerRun)
			}
		}
	}
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}
