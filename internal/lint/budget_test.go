package lint

import (
	"go/token"
	"strings"
	"testing"
)

func TestParseBudget(t *testing.T) {
	entries, err := ParseBudget([]byte(`
# comment
lockcheck 1 forwards constant names
goroutinecheck 2 bench scaffolding
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("parsed %d entries, want 2", len(entries))
	}
	if entries[0].Analyzer != "lockcheck" || entries[0].Max != 1 || entries[0].Rationale != "forwards constant names" {
		t.Errorf("entry 0 = %+v", entries[0])
	}
	if entries[1].Max != 2 {
		t.Errorf("entry 1 max = %d, want 2", entries[1].Max)
	}
}

func TestParseBudgetRejectsMalformed(t *testing.T) {
	for _, src := range []string{
		"lockcheck 1",          // no rationale
		"lockcheck one reason", // non-numeric max
		"lockcheck -1 reason",  // negative max
	} {
		if _, err := ParseBudget([]byte(src)); err == nil {
			t.Errorf("ParseBudget(%q) accepted a malformed line", src)
		}
	}
}

func site(analyzer, file string, line int) Suppression {
	return Suppression{Analyzer: analyzer, Reason: "r", Pos: token.Position{Filename: file, Line: line}}
}

func TestCheckBudget(t *testing.T) {
	budget := []BudgetEntry{{Analyzer: "goroutinecheck", Max: 1, Rationale: "x"}}

	// Within budget: no diagnostics.
	if diags := CheckBudget(budget, []Suppression{site("goroutinecheck", "a.go", 1)}); len(diags) != 0 {
		t.Errorf("within budget: got %v", diags)
	}

	// Over budget: one diagnostic per excess site.
	diags := CheckBudget(budget, []Suppression{
		site("goroutinecheck", "a.go", 1),
		site("goroutinecheck", "b.go", 2),
	})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "budget allows 1") {
		t.Errorf("over budget: got %v", diags)
	}

	// Unbudgeted analyzer: every site reported.
	diags = CheckBudget(budget, []Suppression{site("ctxcheck", "c.go", 3)})
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no lint.budget entry") {
		t.Errorf("unbudgeted: got %v", diags)
	}
}

// TestSuppressionsInventory pins that the inventory carries reasons and
// positions — the budget report depends on both.
func TestSuppressionsInventory(t *testing.T) {
	pkg := loadTestdata(t, "goroutine_clean")
	sites := Suppressions(pkg)
	if len(sites) != 1 {
		t.Fatalf("found %d suppressions in goroutine_clean, want 1", len(sites))
	}
	s := sites[0]
	if s.Analyzer != "goroutinecheck" {
		t.Errorf("analyzer = %q", s.Analyzer)
	}
	if !strings.Contains(s.Reason, "exercise suppression") {
		t.Errorf("reason = %q, want the directive's rationale text", s.Reason)
	}
	if s.Pos.Line == 0 || !strings.HasSuffix(s.Pos.Filename, "goroutine.go") {
		t.Errorf("position = %v", s.Pos)
	}
}
