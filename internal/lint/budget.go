package lint

import (
	"bufio"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The suppression budget makes //lint:allow debt a reviewed, checked-in
// quantity instead of an unbounded escape hatch. The repo root carries a
// lint.budget file listing, per analyzer, the maximum number of
// suppressions tolerated and why those sites are legitimate:
//
//	# analyzer  max  rationale
//	telemetrycheck 1 remote metrics adaptor forwards caller-provided constant names
//
// The driver fails the run when the live suppression inventory exceeds
// an analyzer's budget, or when a suppression names an analyzer with no
// budget line at all. Shrinking debt never needs a budget change;
// growing it does, and the diff shows up in review.

// A BudgetEntry is one line of the lint.budget file.
type BudgetEntry struct {
	Analyzer  string
	Max       int
	Rationale string
}

// ParseBudget parses the lint.budget format: one entry per line,
// `<analyzer> <max> <rationale…>`; blank lines and #-comments ignored.
func ParseBudget(data []byte) ([]BudgetEntry, error) {
	var entries []BudgetEntry
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("lint.budget:%d: need \"<analyzer> <max> <rationale>\", got %q", lineNo, line)
		}
		max, err := strconv.Atoi(fields[1])
		if err != nil || max < 0 {
			return nil, fmt.Errorf("lint.budget:%d: max must be a non-negative integer, got %q", lineNo, fields[1])
		}
		entries = append(entries, BudgetEntry{
			Analyzer:  fields[0],
			Max:       max,
			Rationale: strings.Join(fields[2:], " "),
		})
	}
	return entries, sc.Err()
}

// CheckBudget compares the live suppression inventory against the
// budget and returns one diagnostic per violation: an analyzer over its
// budget, or a suppression for an analyzer with no budget line.
func CheckBudget(entries []BudgetEntry, sites []Suppression) []Diagnostic {
	budget := map[string]int{}
	for _, e := range entries {
		budget[e.Analyzer] += e.Max
	}
	counts := map[string][]Suppression{}
	for _, s := range sites {
		counts[s.Analyzer] = append(counts[s.Analyzer], s)
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Strings(names)
	var diags []Diagnostic
	for _, name := range names {
		used := counts[name]
		max, budgeted := budget[name]
		if !budgeted {
			for _, s := range used {
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					Pos:      s.Pos,
					Message:  fmt.Sprintf("suppression of %s has no lint.budget entry; add one with a rationale or fix the finding", name),
				})
			}
			continue
		}
		if len(used) > max {
			// Anchor the report on the excess sites so the fix target is
			// concrete.
			for _, s := range used[max:] {
				diags = append(diags, Diagnostic{
					Analyzer: "lint",
					Pos:      s.Pos,
					Message:  fmt.Sprintf("suppression debt for %s is %d, budget allows %d; fix a finding or grow the budget in review", name, len(used), max),
				})
			}
		}
	}
	return diags
}
