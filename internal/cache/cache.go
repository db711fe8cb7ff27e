// Package cache models the per-processor private caches of the simulated
// CC-NUMA machine. The paper's evaluation assumes infinite caches (so the
// only read misses are cold and coherence misses); the finite set-associative
// LRU variant implements the paper's §7 "open issues" extension, introducing
// capacity and conflict misses.
//
// A machine's infinite caches share one line-major copy table
// (NewInfinites): the copies of one line lie side by side, which is how a
// coherence fan-out visits them.
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

// NewInfinites returns the unbounded caches (the paper's default) of a
// machine's nodes, one per node. They share one line-major copy table: node
// n's copy of line l sits at slot l·nodes+n, so the copies of one line lie
// side by side, and a coherence fan-out over a line's sharers reads one
// stretch of memory instead of one page in each node's table. The shared
// heap is a bump allocator, so line numbers are dense from zero, and a
// lookup on the per-access hot path is two array indexings with no hashing,
// no per-line pointer, and no steady-state allocation. A slot is the Line
// itself: State == Invalid marks it absent.
func NewInfinites(nodes int) []Cache {
	t := new(memsys.Paged[Line])
	views := make([]infinite, nodes)
	cs := make([]Cache, nodes)
	for i := range views {
		views[i] = infinite{t: t, nodes: uint64(nodes), node: uint64(i)}
		cs[i] = &views[i]
	}
	return cs
}

// NewInfinite returns one unbounded cache: the one-node case of
// NewInfinites.
func NewInfinite() Cache { return &infinite{t: new(memsys.Paged[Line]), nodes: 1} }

// infinite is one node's column of a shared copy table.
type infinite struct {
	t           *memsys.Paged[Line] // shared by all the machine's nodes
	nodes, node uint64
	n           int // resident lines
}

func (c *infinite) slot(line memsys.Addr) uint64 { return uint64(line)*c.nodes + c.node }

func (c *infinite) Lookup(line memsys.Addr) (*Line, bool) {
	l := c.t.Peek(c.slot(line))
	if l == nil || l.State == Invalid {
		return nil, false
	}
	return l, true
}

func (c *infinite) Insert(line memsys.Addr) (*Line, memsys.Addr, State, bool) {
	l := c.t.At(c.slot(line))
	if l.State == Invalid {
		*l = Line{State: Shared}
		c.n++
	}
	return l, 0, Invalid, false
}

func (c *infinite) Invalidate(line memsys.Addr) {
	if l := c.t.Peek(c.slot(line)); l != nil && l.State != Invalid {
		l.State = Invalid
		c.n--
	}
}

func (c *infinite) Touch(memsys.Addr) {}
func (c *infinite) Len() int          { return c.n }
func (c *infinite) Evictions() uint64 { return 0 }

// ForEach steps through the node's own slots, one per line, so a sweep of
// every node (the conformance audit) reads the table once.
func (c *infinite) ForEach(f func(memsys.Addr, *Line)) {
	end := c.t.Len()
	for i, line := c.node, memsys.Addr(0); i < end; i, line = i+c.nodes, line+1 {
		if l := c.t.Peek(i); l != nil && l.State != Invalid {
			f(line, l)
		}
	}
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
