// Package lint is AIDE's in-tree static-analysis suite: a small
// go/analysis-style framework plus the project's custom analyzers. It
// exists because AIDE's correctness rests on invariants the compiler
// cannot see — lock discipline around the VM and peer tables, trace
// determinism in the replay paths, transport-error propagation at the
// remote-invocation boundary (the paper's graceful degradation when the
// surrogate disappears), and the concurrency lifecycle of the
// platform's background machinery: goroutines that provably join,
// contexts that thread caller-to-callee, atomic fields that stay
// atomic.
//
// The framework is self-contained on the standard library's go/ast and
// go/types (no golang.org/x/tools dependency): packages are loaded
// offline from `go list -export` build-cache export data, see load.go.
// The cmd/aide-vet driver runs the suite standalone or as a `go vet
// -vettool`.
//
// A finding can be suppressed at a specific site with a comment on the
// flagged line or the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; suppressions without one are reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in reports and //lint:allow comments.
	Name string

	// Doc is a one-paragraph description of the invariant it enforces.
	Doc string

	// Run inspects one package and reports findings through the Pass.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer *Analyzer

	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// AllowDirective is the comment prefix that suppresses a finding.
const AllowDirective = "//lint:allow "

// A Suppression is one //lint:allow directive found in source, with
// its mandatory reason. The driver's suppression-debt report compares
// the full inventory against the checked-in lint.budget file.
type Suppression struct {
	Analyzer string
	Reason   string
	Pos      token.Position
}

// suppressions maps file -> line -> directives allowed on that line (a
// directive also covers the line directly beneath it, so it can sit
// above the flagged statement).
type suppressions map[string]map[int][]Suppression

func collectSuppressions(fset *token.FileSet, files []*ast.File) (suppressions, []Diagnostic) {
	sup := suppressions{}
	var malformed []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				directive := strings.TrimSpace(AllowDirective)
				if c.Text != directive && !strings.HasPrefix(c.Text, AllowDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, directive))
				pos := fset.Position(c.Pos())
				if len(fields) < 2 {
					malformed = append(malformed, Diagnostic{
						Analyzer: "lint",
						Pos:      pos,
						Message:  "malformed //lint:allow: need \"//lint:allow <analyzer> <reason>\"",
					})
					continue
				}
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int][]Suppression{}
					sup[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], Suppression{
					Analyzer: fields[0],
					Reason:   strings.Join(fields[1:], " "),
					Pos:      pos,
				})
			}
		}
	}
	return sup, malformed
}

func (s suppressions) allows(d Diagnostic) bool {
	byLine := s[d.Pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, a := range byLine[line] {
			if a.Analyzer == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// Suppressions inventories every well-formed //lint:allow directive in
// the package, sorted by position, for the driver's budget report.
func Suppressions(pkg *Package) []Suppression {
	sup, _ := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Suppression
	for _, byLine := range sup {
		for _, entries := range byLine {
			out = append(out, entries...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}

// Run applies the analyzers to one loaded package and returns the
// surviving (non-suppressed) findings sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup, diags := collectSuppressions(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
		}
		pass.report = func(d Diagnostic) {
			if !sup.allows(d) {
				diags = append(diags, d)
			}
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return diags[i].Message < diags[j].Message
	})
	return diags, nil
}

// All returns every analyzer in the suite.
func All() []*Analyzer {
	return []*Analyzer{LockCheck, DetCheck, RPCErr, GoroutineCheck, CtxCheck, AtomicCheck}
}

// scopes lists, per analyzer, the package-path suffixes it is scoped to
// repo-wide. Analyzers absent from the map run everywhere.
var scopes = map[string][]string{
	// The monitor/partitioner and the remote module run under the VM's
	// method-dispatch hooks, concurrently with the peer's worker pool;
	// the telemetry instruments are read by scrapes concurrent with all
	// of them.
	LockCheck.Name: {
		"internal/remote", "internal/vm", "internal/monitor",
		"internal/telemetry",
	},
	// The deterministic replay paths: Figures 6-9 must reproduce
	// bit-for-bit from a recorded trace. The telemetry package rides
	// along because snapshots and exposition must be stable run to run:
	// its instruments and tracer read only their injected clock.
	DetCheck.Name: {
		"internal/emulator", "internal/mincut", "internal/policy",
		"internal/trace", "internal/experiments", "internal/remote",
		"internal/telemetry",
	},
}

// For returns the analyzers that apply to the package path.
func For(pkgPath string) []*Analyzer {
	var out []*Analyzer
	for _, a := range All() {
		suffixes, scoped := scopes[a.Name]
		if !scoped {
			out = append(out, a)
			continue
		}
		for _, s := range suffixes {
			if strings.HasSuffix(pkgPath, s) {
				out = append(out, a)
				break
			}
		}
	}
	return out
}
