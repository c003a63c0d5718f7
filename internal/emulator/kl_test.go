package emulator

import (
	"math"
	"reflect"
	"testing"

	"aide/internal/apps"
	"aide/internal/graph"
	"aide/internal/mincut"
	"aide/internal/monitor"
	"aide/internal/netmodel"
	"aide/internal/policy"
)

// TestKLDecisionIsWhatThePolicyAccepts replays the memory-study
// applications with the KL pass on, as the heuristic ablation does. Every
// applied partition's Decision must be the memory policy's evaluation of
// its own placement on the graph the partition read, and that placement
// must meet the policy's rule: a refined cut the policy would reject is
// never applied, and the record describes the placement that was.
func TestKLDecisionIsWhatThePolicyAccepts(t *testing.T) {
	if testing.Short() {
		t.Skip("records and replays three Table-1 applications")
	}
	for _, spec := range []*apps.Spec{apps.JavaNote(), apps.Dia(), apps.Biomer()} {
		tr, err := apps.Record(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Mode:             MemoryMode,
			HeapCapacity:     spec.EmuHeap,
			Link:             netmodel.WaveLAN(),
			SurrogateSpeedup: 1,
			ClientSlowdown:   10,
			Params:           policy.InitialParams(),
			GCBytesTrigger:   96 << 10,
			KLRefine:         true,
		}
		res, err := Run(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		applied := 0
		for _, p := range res.Partitions {
			if p.Rejected {
				continue
			}
			applied++
			m := monitor.New(nil)
			m.OnEvents(tr, tr.Events[:p.EventIndex+1])
			g := m.Graph()
			mp := policy.MemoryPolicy{MinFreeFraction: cfg.Params.MinFreeFraction}
			if p.Forced {
				mp.MinFreeFraction = 0
			}
			d := p.Decision
			want, err := mp.Choose(g, cfg.HeapCapacity, []mincut.Candidate{{InClient: d.InClient, CutWeight: d.CutWeight, Offloaded: d.OffloadClasses}})
			if err != nil {
				t.Errorf("%s, event %d: the applied placement fails the policy (%v); the record claims %d B freed", spec.Name, p.EventIndex, err, d.OffloadBytes)
				continue
			}
			if !reflect.DeepEqual(want, d) {
				t.Errorf("%s, event %d: recorded %d B freed, cut %d B; the applied placement frees %d B, cuts %d B",
					spec.Name, p.EventIndex, d.OffloadBytes, d.CutBytes, want.OffloadBytes, want.CutBytes)
			}
			inClient := func(v graph.NodeID) bool { return d.InClient[v] }
			if w := g.CutWeight(inClient, graph.BytesWeight); math.Abs(w-d.CutWeight) > 1e-9*max(1, w) {
				t.Errorf("%s, event %d: recorded cut weight %v, the placement's is %v", spec.Name, p.EventIndex, d.CutWeight, w)
			}
		}
		if applied == 0 {
			t.Errorf("%s: no partition applied", spec.Name)
		}
	}
}
