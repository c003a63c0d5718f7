package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Goldens pin everything the benchmark expects to repeat bit-for-bit:
// the digest of every simulated emulator result and the counts marked
// exact. They live in testdata/golden.json, are compiled in, and are
// rewritten only by -update-golden.

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenPath is where -update-golden writes, relative to the repository
// root the benchmark runs from.
const goldenPath = "benchmark/testdata/golden.json"

type goldenSet struct {
	mu     sync.Mutex
	want   map[string]string
	got    map[string]string
	update bool // record instead of compare
}

func loadGolden(update bool) (*goldenSet, error) {
	g := &goldenSet{want: map[string]string{}, got: map[string]string{}, update: update}
	if err := json.Unmarshal(goldenJSON, &g.want); err != nil {
		return nil, fmt.Errorf("parse embedded golden.json: %w", err)
	}
	return g, nil
}

// equal reports whether value is the golden one for key. While updating
// it records the value and accepts it, unless two observations of one
// key disagree — then the quantity is not exact and must not be pinned.
func (g *goldenSet) equal(key string, value any) bool {
	v := fmt.Sprint(value)
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.update {
		if prev, seen := g.got[key]; seen && prev != v {
			return false
		}
		g.got[key] = v
		return true
	}
	return g.want[key] == v
}

func (g *goldenSet) write(path string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	b, err := json.MarshalIndent(g.got, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
