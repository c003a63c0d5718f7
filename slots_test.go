package aide

import (
	"errors"
	"testing"

	"aide/internal/remote"
	"aide/internal/vm"
)

// roundOpen observes whether slot idx has an open handoff round. Tests
// only: every change to a round goes through openRound, closeRound and
// bounce.
func (t *slotTable) roundOpen(idx int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	hw := t.handoffs[idx]
	return hw != nil && !hw.done
}

// TestSlotTableTransitions drives every transition of the client's slot
// table from every slot state and checks the two things callers rely on:
// the claim bit (only a caller naming the slot's current occupant gets
// true) and the bg ledger (closeAll returning proves every claim was
// discharged). The slot under test is VM peer index 1: index 0 is filler
// so an off-by-one between VM index and table position would show.
func TestSlotTableTransitions(t *testing.T) {
	reg := demoRegistry(t)
	const idx = 1
	const (
		empty    = "empty"    // never attached, or retired
		mine     = "mine"     // holds the peer the caller names
		someone  = "someone"  // holds a different peer (handed off, reattached)
		detached = "detached" // after closeAll
	)
	cases := []struct {
		state, op string
		claim     bool
		occupant  string // "p", "q", "other", or "" for an empty slot
	}{
		{empty, "retire", false, ""}, {mine, "retire", true, ""}, {someone, "retire", false, "other"}, {detached, "retire", false, ""},
		{empty, "swap", false, ""}, {mine, "swap", true, "q"}, {someone, "swap", false, "other"}, {detached, "swap", false, ""},
		{mine, "swap-install-fails", false, "p"},
		{empty, "hold", false, ""}, {mine, "hold", true, "p"}, {someone, "hold", false, "other"}, {detached, "hold", false, ""},
		{mine, "retire-nil", false, "p"}, // an unguarded retire does not exist: naming no peer claims nothing
	}
	for _, c := range cases {
		t.Run(c.op+" from "+c.state, func(t *testing.T) {
			v := vm.New(reg, vm.Config{Role: vm.RoleClient, HeapCapacity: 1 << 20})
			peer := func(takeover *int) *remote.Peer {
				ct, st := remote.NewChannelPair()
				p := remote.NewPeer(v, ct, remote.Options{Workers: 1, Takeover: takeover})
				t.Cleanup(func() {
					_ = p.Close()
					_ = st.Close()
				})
				return p
			}
			at := idx
			_, p, q, other := peer(nil), peer(nil), peer(&at), peer(&at)
			if p.VMIndex() != idx {
				t.Fatalf("peer under test landed on VM index %d, want %d", p.VMIndex(), idx)
			}
			tab := newSlotTable(nil)
			switch c.state {
			case mine:
				tab.add(p)
			case someone:
				tab.add(other)
			case detached:
				tab.add(p)
				if err := tab.closeAll(); err != nil {
					t.Fatal(err)
				}
			}
			tab.place([]string{"Doc"}, idx)
			tab.place([]string{"Chunk"}, 0)

			effects := 0
			var got bool
			switch c.op {
			case "retire":
				got, _ = tab.exchange(idx, p, nil, "test", func() error { effects++; return nil })
			case "retire-nil":
				got, _ = tab.exchange(idx, nil, nil, "test", func() error { effects++; return nil })
			case "swap":
				got, _ = tab.exchange(idx, p, q, "test", func() error { effects++; return nil })
			case "swap-install-fails":
				var err error
				got, err = tab.exchange(idx, p, q, "test", func() error { effects++; return errors.New("no such slot") })
				if err == nil {
					t.Error("the failed install's error was dropped")
				}
			case "hold":
				if got = tab.hold(idx, p); got {
					tab.bg.Done() // the held goroutine finishing
				}
			}
			if got != c.claim {
				t.Errorf("claimed = %v, want %v", got, c.claim)
			}
			if want := c.claim && c.op != "hold" || c.op == "swap-install-fails"; (effects == 1) != want {
				t.Errorf("effect ran %d times; it runs exactly once, and only under a claim", effects)
			}
			occupant := map[*remote.Peer]string{nil: "", p: "p", q: "q", other: "other"}[tab.at(idx)]
			if occupant != c.occupant {
				t.Errorf("slot holds %q afterwards, want %q", occupant, c.occupant)
			}
			// Only a retire forgets the slot's classes, and only that slot's.
			placed := tab.placed()
			if _, kept := placed["Doc"]; kept == (c.op == "retire" && c.claim) {
				t.Errorf("Doc placement kept = %v after %s (claimed %v)", kept, c.op, c.claim)
			}
			if _, kept := placed["Chunk"]; !kept {
				t.Error("a transition on slot 1 forgot slot 0's classes")
			}
			if err := tab.closeAll(); err != nil { // returns only once bg balances
				t.Errorf("closeAll: %v", err)
			}
			if c.claim && (c.op == "retire" || c.op == "swap") && p.State() != remote.StateDisconnected {
				t.Error("the connection taken out of the slot was not closed")
			}
		})
	}
}
