package aide

import (
	"sync"
	"time"

	"aide/internal/remote"
)

// slotTable is the one owner of the client's connection lifecycle: which
// wire connection each VM peer slot holds, which classes live behind it,
// and the handoff round that callers bounced off it are parked on (the
// transition table is DESIGN.md §12). Each transition answers "is the slot
// still mine?" and claims a place in bg for the goroutine it spawns in one
// critical section; exchange and hold claim nothing unless the slot holds
// exactly the peer the caller names, so a late report about a connection
// that already left its slot can never tear down the replacement.
type slotTable struct {
	// discMu serializes exchanges, effect included: every observer of one
	// failure (the receive loop's OnDown, each failed call in the VM's
	// failover hook) returns only after the winner has re-homed the peer's
	// stubs. Lock order discMu → mu.
	discMu sync.Mutex

	mu sync.Mutex
	// peers is positional by VM peer index for the life of the client:
	// placements and the VM's stubs address surrogates by index, so a lost
	// surrogate's slot goes nil, never away.
	peers     []*remote.Peer
	offloaded map[string]int       // class → slot hosting it
	handoffs  map[int]*handoffWait // slot → latest handoff round

	// bg joins the goroutines transitions spawn; closeAll waits on it so
	// none outlives the client. Add happens under mu with the claim, so it
	// is serialized against closeAll emptying the table and can never race
	// a Wait at zero.
	bg sync.WaitGroup

	logf func(format string, args ...any) // WithLogf; nil discards
}

func newSlotTable(logf func(string, ...any)) *slotTable {
	return &slotTable{offloaded: make(map[string]int), handoffs: make(map[int]*handoffWait), logf: logf}
}

// holdsLocked reports whether slot idx still holds exactly p.
func (t *slotTable) holdsLocked(idx int, p *remote.Peer) bool {
	return p != nil && idx >= 0 && idx < len(t.peers) && t.peers[idx] == p
}

// add files a new connection under its VM peer index.
func (t *slotTable) add(p *remote.Peer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for len(t.peers) <= p.VMIndex() {
		t.peers = append(t.peers, nil)
	}
	t.peers[p.VMIndex()] = p
}

// exchange is the guarded transition: if slot idx still holds expect it
// now holds next (nil retires the slot and forgets the classes placed on
// it), effect runs before any other exchange can, and expect is closed in
// the background. A failing effect puts expect back.
func (t *slotTable) exchange(idx int, expect, next *remote.Peer, what string, effect func() error) (bool, error) {
	t.discMu.Lock()
	defer t.discMu.Unlock()
	t.mu.Lock()
	if !t.holdsLocked(idx, expect) {
		t.mu.Unlock()
		return false, nil
	}
	t.peers[idx] = next
	if next == nil {
		for cls, i := range t.offloaded {
			if i == idx {
				delete(t.offloaded, cls)
			}
		}
	}
	t.bg.Add(1)
	t.mu.Unlock()
	if err := effect(); err != nil {
		t.mu.Lock()
		if t.holdsLocked(idx, next) {
			t.peers[idx] = expect
		}
		t.mu.Unlock()
		t.bg.Done()
		return false, err
	}
	go t.closeRetired(expect, next != nil, what)
	return true, nil
}

// closeRetired closes the connection an exchange took out of its slot,
// on its own goroutine because the exchange may be running on one of p's
// (its receive loop via OnDown, the serve worker running the handoff
// handler), which Close joins. A connection retired healthy — its session
// moved — first lets the serves it is running write their replies (the
// handoff ack above all: closing under it reads as a lost client at the
// old surrogate), then gives replies already on the wire a moment to land.
func (t *slotTable) closeRetired(p *remote.Peer, healthy bool, what string) {
	defer t.bg.Done()
	if healthy {
		p.WaitServeIdle(0)
		deadline := time.Now().Add(time.Second)
		for p.PendingCalls() > 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if err := p.Close(); err != nil && t.logf != nil {
		t.logf("aide: close %s surrogate %d: %v", what, p.VMIndex(), err)
	}
}

// hold joins bg on behalf of a goroutine working against slot idx, if the
// slot still holds p; the goroutine calls bg.Done when it finishes.
func (t *slotTable) hold(idx int, p *remote.Peer) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.holdsLocked(idx, p) {
		return false
	}
	t.bg.Add(1)
	return true
}

// at returns the connection slot idx holds, nil when it holds none.
func (t *slotTable) at(idx int) *remote.Peer {
	t.mu.Lock()
	defer t.mu.Unlock()
	if idx < 0 || idx >= len(t.peers) {
		return nil
	}
	return t.peers[idx]
}

// live returns a positional snapshot of the slots (nil where a surrogate
// was lost) and how many are connected.
func (t *slotTable) live() (peers []*remote.Peer, n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	peers = append(peers, t.peers...)
	for _, p := range peers {
		if p != nil {
			n++
		}
	}
	return peers, n
}

// closeAll empties the table, closes every connection still in it, and
// joins the goroutines earlier transitions spawned.
func (t *slotTable) closeAll() error {
	t.mu.Lock()
	peers := t.peers
	t.peers = nil
	t.mu.Unlock()
	var firstErr error
	for _, p := range peers {
		if p != nil { // nil: lost earlier, and closed by its retire
			if err := p.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
	}
	t.bg.Wait()
	return firstErr
}

// place records that classes now live on slot idx; forget drops classes
// that came home.
func (t *slotTable) place(classes []string, idx int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cls := range classes {
		t.offloaded[cls] = idx
	}
}

func (t *slotTable) forget(classes []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, cls := range classes {
		delete(t.offloaded, cls)
	}
}

// placed returns a copy of the class → slot placement.
func (t *slotTable) placed() map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.offloaded))
	for cls, idx := range t.offloaded {
		out[cls] = idx
	}
	return out
}

// handoffWait parks the application threads whose calls bounced off a
// draining surrogate until the session's new home is wired in. done
// stays set after the channel closes so a straggler that reads the
// drained error late still retries immediately; installed records the
// peer the completed handoff wired in, so a bounce coming from that
// very peer is recognized as the start of the NEXT drain rather than a
// straggler of the last one. An aborted handoff closes the round with
// installed nil — the session resumed in place, so every bounce retries
// immediately against it. Guarded by slotTable.mu.
type handoffWait struct {
	ch        chan struct{}
	done      bool
	installed *remote.Peer
}

// openRound makes sure slot idx has an open handoff round for bounced
// callers to park on.
func (t *slotTable) openRound(idx int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.openRoundLocked(idx)
}

func (t *slotTable) openRoundLocked(idx int) *handoffWait {
	hw := t.handoffs[idx]
	if hw == nil || hw.done {
		hw = &handoffWait{ch: make(chan struct{})}
		t.handoffs[idx] = hw
	}
	return hw
}

// closeRound completes slot idx's open round, waking everyone parked on
// it: installed is the peer the handoff wired in, nil when it aborted.
func (t *slotTable) closeRound(idx int, installed *remote.Peer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if hw := t.handoffs[idx]; hw != nil && !hw.done {
		hw.done = true
		hw.installed = installed
		close(hw.ch)
	}
}

// bounce files a drained redirect that reached a call on slot idx through
// peer used. A straggler of the completed round (the bounce came from a
// peer that round replaced) retries at once: wait is nil, and aborted
// says the round ended with the session resuming in place. A bounce from
// the very peer the last round installed means that home is draining
// now: it parks, like any other, on the slot's open round.
func (t *slotTable) bounce(idx int, used *remote.Peer) (wait <-chan struct{}, aborted bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if hw := t.handoffs[idx]; hw != nil && hw.done && (used == nil || used != hw.installed) {
		return nil, hw.installed == nil
	}
	return t.openRoundLocked(idx).ch, false
}
