package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// The testdata harness follows the x/tools analysistest convention: a
// flagged line carries a comment
//
//	code() // want `regexp`
//
// and the test fails on any unexpected diagnostic or any expectation
// that does not fire. Clean packages carry no want comments at all, so
// a single stray finding fails them.

const wantMarker = "// want "

var wantPattern = regexp.MustCompile("`([^`]*)`")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// loadTestdata loads and type-checks one package under testdata/src
// through the production loader.
func loadTestdata(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := Load(".", "./testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading testdata %s: %v", name, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("testdata %s: loaded %d packages, want 1", name, len(pkgs))
	}
	return pkgs[0]
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, wantMarker)
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantPattern.FindAllStringSubmatch(c.Text[idx+len(wantMarker):], -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment without a `backquoted` pattern", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// runTestdata applies one analyzer to one testdata package and matches
// its diagnostics against the package's want comments.
func runTestdata(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	pkg := loadTestdata(t, name)
	wants := collectWants(t, pkg)
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, name, err)
	}
	for _, d := range diags {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
}

func TestLockCheck(t *testing.T) {
	runTestdata(t, LockCheck, "lock_bad")
	runTestdata(t, LockCheck, "lock_clean")
}

func TestDetCheck(t *testing.T) {
	runTestdata(t, DetCheck, "det_bad")
	runTestdata(t, DetCheck, "det_clean")
	// A stand-in shaped like the real telemetry package: its instruments
	// read an injected clock, never the wall clock.
	runTestdata(t, DetCheck, "internal/telemetry")
}

func TestRPCErr(t *testing.T) {
	runTestdata(t, RPCErr, "rpcerr_bad")
	runTestdata(t, RPCErr, "rpcerr_clean")
}

func TestGoroutineCheck(t *testing.T) {
	runTestdata(t, GoroutineCheck, "goroutine_bad")
	runTestdata(t, GoroutineCheck, "goroutine_clean")
}

func TestCtxCheck(t *testing.T) {
	runTestdata(t, CtxCheck, "ctx_bad")
	runTestdata(t, CtxCheck, "ctx_clean")
}

func TestAtomicCheck(t *testing.T) {
	runTestdata(t, AtomicCheck, "atomic_bad")
	runTestdata(t, AtomicCheck, "atomic_clean")
}

// TestAllowDirective pins the suppression contract: a directive covers
// its own line and the next, only for the named analyzer, and a
// directive without a reason is itself reported.
func TestAllowDirective(t *testing.T) {
	const src = `package p

func f() {
	//lint:allow rpcerr
	_ = 0
	//lint:allow detcheck trusted seed
	_ = 1
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sup, malformed := collectSuppressions(fset, []*ast.File{f})
	if len(malformed) != 1 || !strings.Contains(malformed[0].Message, "malformed") {
		t.Fatalf("malformed = %v, want exactly one malformed-directive report", malformed)
	}
	for _, line := range []int{6, 7} {
		d := Diagnostic{Analyzer: "detcheck", Pos: token.Position{Filename: "p.go", Line: line}}
		if !sup.allows(d) {
			t.Errorf("line %d not suppressed by the directive on line 6", line)
		}
	}
	if sup.allows(Diagnostic{Analyzer: "rpcerr", Pos: token.Position{Filename: "p.go", Line: 7}}) {
		t.Error("a detcheck directive must not suppress rpcerr")
	}
	if sup.allows(Diagnostic{Analyzer: "detcheck", Pos: token.Position{Filename: "p.go", Line: 5}}) {
		t.Error("the reasonless directive on line 4 must not suppress anything")
	}
}

// TestForScoping pins which analyzers run where.
func TestForScoping(t *testing.T) {
	names := func(pkg string) []string {
		var out []string
		for _, a := range For(pkg) {
			out = append(out, a.Name)
		}
		return out
	}
	// The concurrency-lifecycle analyzers (goroutinecheck, ctxcheck,
	// atomiccheck) are unscoped: they run everywhere.
	cases := []struct {
		pkg  string
		want string
	}{
		{"aide/internal/remote", "lockcheck detcheck rpcerr goroutinecheck ctxcheck atomiccheck"},
		{"aide/internal/vm", "lockcheck rpcerr goroutinecheck ctxcheck atomiccheck"},
		{"aide/internal/emulator", "detcheck rpcerr goroutinecheck ctxcheck atomiccheck"},
		{"aide/internal/apps", "rpcerr goroutinecheck ctxcheck atomiccheck"},
		{"aide/internal/telemetry", "lockcheck detcheck rpcerr goroutinecheck ctxcheck atomiccheck"},
	}
	for _, tc := range cases {
		if got := strings.Join(names(tc.pkg), " "); got != tc.want {
			t.Errorf("For(%s) = %q, want %q", tc.pkg, got, tc.want)
		}
	}
}
