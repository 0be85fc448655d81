package txn

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Pins is the multiset of read timestamps open readers hold: a
// transaction's ReadTS from Begin until it commits or aborts, an analytical
// snapshot's read point from open until Close. Its Horizon is the oldest of
// them, or the clock (the read watermark) when none is held. No reader that
// is open now or opens later reads below the horizon, so of a row's
// versions at or below it only the newest can still be read; a store may
// unlink the rest (rowstore.Store.Apply).
//
// Pin and Release take one short critical section each and allocate
// nothing once the set has grown to the number of distinct timestamps held
// at once. Horizon takes no lock.
type Pins struct {
	clock func() uint64

	mu   sync.Mutex
	held []pinCount // ascending by ts
	// oldest is held[0].ts, or MaxUint64 when nothing is held.
	oldest atomic.Uint64
}

type pinCount struct {
	ts uint64
	n  int
}

// NewPins returns an empty pin set whose horizon falls back to clock.
func NewPins(clock func() uint64) *Pins {
	p := &Pins{clock: clock}
	p.oldest.Store(math.MaxUint64)
	return p
}

// Pin pins the read point read returns and returns it. read runs inside
// the pin set's guard, between two reads of the clock: if the clock moved,
// a commit may have read a horizon above the pin before it saw the pin, so
// Pin retries at the new read point. A read point equal to the clock (a
// transaction's, a snapshot's on A, C and D) is therefore at or above every
// horizon a commit reads. A lower one (B's snapshots, which read no row
// store) holds the horizon back but is not protected by it.
func (p *Pins) Pin(read func() uint64) uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		c := p.clock()
		ts := read()
		p.add(ts)
		if p.clock() == c {
			return ts
		}
		p.remove(ts)
	}
}

// Release drops one pin of ts. Every Pin is released exactly once.
func (p *Pins) Release(ts uint64) {
	p.mu.Lock()
	p.remove(ts)
	p.mu.Unlock()
}

// Horizon returns the oldest pinned timestamp, or the clock when nothing
// is pinned.
func (p *Pins) Horizon() uint64 {
	// The clock first: a pin published after this load is at or above it
	// (Pin re-reads the clock after publishing).
	c := p.clock()
	if o := p.oldest.Load(); o < c {
		return o
	}
	return c
}

// Lag returns the clock minus the horizon: how far the oldest open reader
// trails the newest read point.
func (p *Pins) Lag() uint64 {
	h := p.Horizon()
	return p.clock() - h
}

// Held returns the number of pins held.
func (p *Pins) Held() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, h := range p.held {
		n += h.n
	}
	return n
}

func (p *Pins) add(ts uint64) {
	i := len(p.held)
	if i == 0 || p.held[i-1].ts < ts {
		p.held = append(p.held, pinCount{ts, 1})
	} else if i = p.find(ts); i < len(p.held) && p.held[i].ts == ts {
		p.held[i].n++
	} else {
		p.held = append(p.held, pinCount{})
		copy(p.held[i+1:], p.held[i:])
		p.held[i] = pinCount{ts, 1}
	}
	p.oldest.Store(p.held[0].ts)
}

func (p *Pins) remove(ts uint64) {
	i := p.find(ts)
	if i == len(p.held) || p.held[i].ts != ts {
		panic("txn: release of a timestamp that is not pinned")
	}
	if p.held[i].n--; p.held[i].n == 0 {
		p.held = append(p.held[:i], p.held[i+1:]...)
	}
	if len(p.held) == 0 {
		p.oldest.Store(math.MaxUint64)
	} else {
		p.oldest.Store(p.held[0].ts)
	}
}

// find returns the index of the first held timestamp at or above ts.
func (p *Pins) find(ts uint64) int {
	return sort.Search(len(p.held), func(i int) bool { return p.held[i].ts >= ts })
}
