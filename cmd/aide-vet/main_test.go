package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The driver is exercised end to end: built once per test run, then
// executed against the lint testdata packages (which the `./...`
// pattern never matches, so the repo-wide run stays clean while these
// packages deliberately carry findings).

var vetBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "aide-vet-test")
	if err != nil {
		panic(err)
	}
	vetBin = filepath.Join(dir, "aide-vet")
	cmd := exec.Command("go", "build", "-o", vetBin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		panic("building aide-vet: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// repoRoot locates the module root from the test's working directory
// (cmd/aide-vet).
func repoRoot(t *testing.T) string {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(cwd))
}

// runVet executes the built driver from the repo root and returns its
// stdout, stderr, and exit code.
func runVet(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(vetBin, args...)
	cmd.Dir = repoRoot(t)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if err != nil {
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running aide-vet: %v", err)
		}
		code = ee.ExitCode()
	}
	return stdout.String(), stderr.String(), code
}

// writeBudget writes a temp budget file covering the testdata packages'
// deliberate suppressions.
func writeBudget(t *testing.T, lines string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lint.budget")
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFindingsExitTwo pins the output contract: findings are text
// lines on stderr, one per diagnostic, and the exit status is 2.
func TestFindingsExitTwo(t *testing.T) {
	stdout, stderr, code := runVet(t, "./internal/lint/testdata/src/ctx_bad")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on findings\nstderr: %s", code, stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q, want findings on stderr only", stdout)
	}
	lines := strings.Split(strings.TrimSpace(stderr), "\n")
	for _, line := range lines {
		if !strings.Contains(line, "ctx_bad") || !strings.Contains(line, ": ctxcheck: ") {
			t.Errorf("finding line %q does not name its file and analyzer", line)
		}
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	budget := writeBudget(t, "ctxcheck 1 testdata suppression exercise\n")
	stdout, stderr, code := runVet(t, "-budget", budget, "./internal/lint/testdata/src/ctx_clean")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 on a clean package\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
}

// TestBudgetRegressionFails pins the suppression-debt contract: a
// suppression whose analyzer has no budget line fails the run even when
// the analyzers themselves report nothing.
func TestBudgetRegressionFails(t *testing.T) {
	budget := writeBudget(t, "goroutinecheck 0 unrelated\n")
	_, stderr, code := runVet(t, "-budget", budget, "./internal/lint/testdata/src/ctx_clean")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on a budget violation\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "no lint.budget entry") {
		t.Errorf("stderr does not explain the missing budget entry:\n%s", stderr)
	}
}

// TestBudgetOverspendFails pins the other direction: more live
// suppressions than the budget grants.
func TestBudgetOverspendFails(t *testing.T) {
	budget := writeBudget(t, "ctxcheck 0 grandfathered none\n")
	_, stderr, code := runVet(t, "-budget", budget, "./internal/lint/testdata/src/ctx_clean")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 on overspent budget\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "budget allows 0") {
		t.Errorf("stderr does not report the overspend:\n%s", stderr)
	}
}
