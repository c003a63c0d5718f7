package main

import (
	"strings"
	"testing"
)

// TestOnlyRejectsUnknownNames: -only must name a step of the table (or
// diag); a removed or misspelt study is an error that lists the valid
// names, and run refuses it before doing any work.
func TestOnlyRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		only string
		ok   bool
	}{
		{"", true},
		{"table1", true},
		{"figure5", true},
		{"handoff", true},
		{"diag", true},
		{"rpc", false},
		{"partition", false},
		{"Figure5", false},
		{"warmup", false},
	}
	for _, c := range cases {
		err := checkOnly(c.only)
		if (err == nil) != c.ok {
			t.Errorf("checkOnly(%q) = %v, want ok=%t", c.only, err, c.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "figure10") {
			t.Errorf("checkOnly(%q) error does not list the valid names: %v", c.only, err)
		}
	}
	if err := run(false, true, "rpc", "", 1); err == nil {
		t.Error("run with -only rpc succeeded; want an unknown-experiment error")
	}
}
