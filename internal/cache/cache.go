// Package cache models the per-processor private caches of the simulated
// CC-NUMA machine. The paper's evaluation assumes infinite caches (so the
// only read misses are cold and coherence misses); the finite set-associative
// LRU variant implements the paper's §7 "open issues" extension, introducing
// capacity and conflict misses.
package cache

import (
	"zsim/internal/memsys"
)

// State is a cache line's coherence state.
type State uint8

const (
	// Invalid: not present.
	Invalid State = iota
	// Shared: present, read-only, other copies may exist.
	Shared
	// Modified: present, writable, exclusive owner.
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	}
	return "?"
}

// Line is the per-line metadata tracked by the protocols.
type Line struct {
	State State
	// ReadyAt is when the line's most recent fill or ownership acquisition
	// completes; a processor re-accessing a pending line waits for it.
	ReadyAt memsys.Time
	// Updates counts protocol updates received since the last local read
	// (competitive protocol self-invalidation counter).
	Updates int
	// Version is the directory version of the contents this copy holds (see
	// directory.Entry.Version). A copy whose version trails the directory's
	// is stale.
	Version uint64
}

// Cache is a private cache holding Line metadata keyed by line index.
type Cache interface {
	// Lookup returns the line's metadata if present (any state but Invalid).
	Lookup(line memsys.Addr) (*Line, bool)
	// Insert adds the line (state Shared, zeroed metadata) and returns it.
	// If the cache is finite and the set is full, the LRU victim is evicted
	// and returned with evicted=true so the protocol can write it back.
	Insert(line memsys.Addr) (l *Line, victim memsys.Addr, victimState State, evicted bool)
	// Invalidate removes the line if present.
	Invalidate(line memsys.Addr)
	// Touch refreshes the line's recency (finite caches; no-op otherwise).
	Touch(line memsys.Addr)
	// Len returns the number of resident lines.
	Len() int
	// Evictions returns the number of capacity/conflict victims displaced
	// so far (always 0 for the infinite cache).
	Evictions() uint64
	// ForEach visits every resident line. The visit order is unspecified;
	// callers must not mutate the cache during iteration.
	ForEach(func(line memsys.Addr, l *Line))
}

// NewInfinite returns an unbounded cache (the paper's default). Lines live
// in a paged flat table indexed by line number with an explicit valid bit —
// the shared heap is a bump allocator, so line numbers are dense from zero
// and a lookup on the per-access hot path is two array indexings with no
// hashing, no per-line pointer, and no steady-state allocation.
func NewInfinite() Cache { return &infinite{} }

// islot is one paged-table slot: the line metadata plus its presence bit.
type islot struct {
	l     Line
	valid bool
}

type infinite struct {
	t memsys.Paged[islot]
	n int // resident (valid) lines
}

func (c *infinite) Lookup(line memsys.Addr) (*Line, bool) {
	s := c.t.Peek(uint64(line))
	if s == nil || !s.valid {
		return nil, false
	}
	return &s.l, true
}

func (c *infinite) Insert(line memsys.Addr) (*Line, memsys.Addr, State, bool) {
	s := c.t.At(uint64(line))
	if !s.valid {
		*s = islot{l: Line{State: Shared}, valid: true}
		c.n++
	}
	return &s.l, 0, Invalid, false
}

func (c *infinite) Invalidate(line memsys.Addr) {
	if s := c.t.Peek(uint64(line)); s != nil && s.valid {
		s.valid = false
		c.n--
	}
}

func (c *infinite) Touch(memsys.Addr) {}
func (c *infinite) Len() int          { return c.n }
func (c *infinite) Evictions() uint64 { return 0 }

func (c *infinite) ForEach(f func(memsys.Addr, *Line)) {
	c.t.ForEach(func(i uint64, s *islot) {
		if s.valid {
			f(memsys.Addr(i), &s.l)
		}
	})
}

// NewFinite returns a set-associative LRU cache with the given total number
// of lines and associativity. lines must be a multiple of assoc.
func NewFinite(lines, assoc int) Cache {
	if lines <= 0 || assoc <= 0 || lines%assoc != 0 {
		panic("cache: lines must be a positive multiple of assoc")
	}
	sets := lines / assoc
	c := &finite{assoc: assoc, sets: make([]set, sets)}
	return c
}

type way struct {
	line memsys.Addr
	l    Line
	lru  uint64 // last-use stamp; larger is more recent
	used bool
}

type set struct {
	ways []way
}

type finite struct {
	assoc     int
	sets      []set
	tick      uint64
	n         int
	evictions uint64
}

func (c *finite) set(line memsys.Addr) *set {
	return &c.sets[int(line)%len(c.sets)]
}

func (c *finite) Lookup(line memsys.Addr) (*Line, bool) {
	s := c.set(line)
	for i := range s.ways {
		if s.ways[i].used && s.ways[i].line == line {
			return &s.ways[i].l, true
		}
	}
	return nil, false
}

func (c *finite) Insert(line memsys.Addr) (*Line, memsys.Addr, State, bool) {
	s := c.set(line)
	c.tick++
	// Already present?
	for i := range s.ways {
		if s.ways[i].used && s.ways[i].line == line {
			s.ways[i].lru = c.tick
			return &s.ways[i].l, 0, Invalid, false
		}
	}
	// Free way?
	if len(s.ways) < c.assoc {
		s.ways = append(s.ways, way{line: line, l: Line{State: Shared}, lru: c.tick, used: true})
		c.n++
		return &s.ways[len(s.ways)-1].l, 0, Invalid, false
	}
	for i := range s.ways {
		if !s.ways[i].used {
			s.ways[i] = way{line: line, l: Line{State: Shared}, lru: c.tick, used: true}
			c.n++
			return &s.ways[i].l, 0, Invalid, false
		}
	}
	// Evict LRU.
	victim := 0
	for i := 1; i < len(s.ways); i++ {
		if s.ways[i].lru < s.ways[victim].lru {
			victim = i
		}
	}
	vline, vstate := s.ways[victim].line, s.ways[victim].l.State
	s.ways[victim] = way{line: line, l: Line{State: Shared}, lru: c.tick, used: true}
	c.evictions++
	return &s.ways[victim].l, vline, vstate, true
}

func (c *finite) Invalidate(line memsys.Addr) {
	s := c.set(line)
	for i := range s.ways {
		if s.ways[i].used && s.ways[i].line == line {
			s.ways[i].used = false
			c.n--
			return
		}
	}
}

func (c *finite) Touch(line memsys.Addr) {
	s := c.set(line)
	c.tick++
	for i := range s.ways {
		if s.ways[i].used && s.ways[i].line == line {
			s.ways[i].lru = c.tick
			return
		}
	}
}

func (c *finite) Len() int { return c.n }

func (c *finite) Evictions() uint64 { return c.evictions }

func (c *finite) ForEach(f func(memsys.Addr, *Line)) {
	for si := range c.sets {
		s := &c.sets[si]
		for i := range s.ways {
			if s.ways[i].used {
				f(s.ways[i].line, &s.ways[i].l)
			}
		}
	}
}
