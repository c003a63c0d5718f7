// Command aide-vet runs AIDE's custom static-analysis suite: lockcheck,
// detcheck, rpcerr, goroutinecheck, ctxcheck and atomiccheck (see
// internal/lint).
//
// Standalone:
//
//	go run ./cmd/aide-vet ./...
//
// or as a go vet tool, which integrates with the build cache:
//
//	go vet -vettool=$(which aide-vet) ./...
//
// In standalone mode the driver also audits suppression debt: every
// //lint:allow must carry a reason (enforced by the lint framework) and
// the per-analyzer suppression counts must fit the checked-in
// lint.budget file (see -budget). Findings go to stderr as text, one per
// line; the exit status is 2 when any finding survives suppression or
// the budget is exceeded, 1 when packages fail to load.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"aide/internal/lint"
)

func main() {
	versionFlag := flag.String("V", "", "print version and exit (go vet protocol)")
	flagsFlag := flag.Bool("flags", false, "print analyzer flags as JSON and exit (go vet protocol)")
	budgetFlag := flag.String("budget", "", "suppression budget file (standalone mode; default: lint.budget in the working directory if present)")
	flag.Int("c", -1, "display context lines (accepted for go vet protocol, unused)")
	flag.Parse()

	if *versionFlag != "" {
		// The go command calls with -V=full and keys its build cache on
		// the output; a devel version must carry an explicit buildID
		// token (the unitchecker convention).
		fmt.Printf("aide-vet version devel buildID=do-not-cache\n")
		return
	}
	if *flagsFlag {
		fmt.Println("[]")
		return
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vetUnit(args[0]))
	}
	if len(args) == 0 {
		args = []string{"./..."}
	}
	os.Exit(standalone(args, *budgetFlag))
}

// standalone loads the patterns itself and analyzes every matched
// package, then audits suppression debt against the budget file.
func standalone(patterns []string, budgetPath string) int {
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	pkgs, err := lint.Load(cwd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var all []lint.Diagnostic
	var sites []lint.Suppression
	for _, pkg := range pkgs {
		diags, err := lint.Run(pkg, lint.For(pkg.Path))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		all = append(all, diags...)
		sites = append(sites, lint.Suppressions(pkg)...)
	}
	if diags, err := auditBudget(cwd, budgetPath, sites); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	} else {
		all = append(all, diags...)
	}
	return emit(all)
}

// auditBudget runs the suppression-debt check. An explicit -budget path
// must exist; otherwise lint.budget in the working directory is used
// when present and the audit is skipped when it is not (so the driver
// still works from arbitrary directories).
func auditBudget(cwd, budgetPath string, sites []lint.Suppression) ([]lint.Diagnostic, error) {
	explicit := budgetPath != ""
	if !explicit {
		budgetPath = filepath.Join(cwd, "lint.budget")
	}
	data, err := os.ReadFile(budgetPath)
	if err != nil {
		if !explicit && os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("aide-vet: %w", err)
	}
	entries, err := lint.ParseBudget(data)
	if err != nil {
		return nil, fmt.Errorf("aide-vet: %w", err)
	}
	return lint.CheckBudget(entries, sites), nil
}

// emit prints the findings to stderr and returns the exit status: 2
// when there are any, 0 otherwise.
func emit(diags []lint.Diagnostic) int {
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// vetConfig mirrors the fields of the go vet unit-checker protocol's
// per-package configuration file that aide-vet needs.
type vetConfig struct {
	ID                        string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// vetUnit analyzes one package unit on behalf of `go vet -vettool`.
func vetUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "aide-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The go command requires the facts file to exist afterwards even
	// though aide-vet's analyzers exchange no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// Analyze the same set standalone mode does: the non-test sources.
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	importPath := cfg.ImportPath
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i] // test variant: "p [p.test]"
	}
	analyzers := lint.For(importPath)
	if len(files) == 0 || len(analyzers) == 0 {
		return 0
	}

	fset := token.NewFileSet()
	var parsed []*ast.File
	for _, name := range files {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		parsed = append(parsed, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	tpkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	pkg := &lint.Package{
		Path:  importPath,
		Dir:   cfg.Dir,
		Fset:  fset,
		Files: parsed,
		Types: tpkg,
		Info:  info,
	}
	diags, err := lint.Run(pkg, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return emit(diags)
}
