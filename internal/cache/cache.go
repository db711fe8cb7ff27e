// Package cache models the per-processor private caches of the simulated
// CC-NUMA machine. The paper's evaluation assumes infinite caches (so the
// only read misses are cold and coherence misses); the finite set-associative
// LRU variant implements the paper's §7 "open issues" extension, introducing
// capacity and conflict misses.
//
// A machine's infinite caches share one line-major copy table
// (NewInfinites): the copies of one line lie side by side in one row, and a
// page holds whole rows, so a coherence fan-out reads a line's copies as
// one slice (Table.Row) and indexes it by sharer. Finite caches have no
// rows; a fan-out asks each sharer's cache with Lookup.
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

// Line is the per-line metadata tracked by the protocols: one 16-byte slot
// of the copy table, fields widest first (TestLineSize pins the size).
type Line struct {
	// ReadyAt is when the line's most recent fill or ownership acquisition
	// completes; a processor re-accessing a pending line waits for it.
	ReadyAt memsys.Time
	// Version is the directory version of the contents this copy holds (see
	// directory.Entry.Version). A copy whose version trails the directory's
	// is stale. The protocols never let a version pass 32 bits: a bump past
	// math.MaxUint32 panics instead of wrapping.
	Version uint32
	// Updates counts protocol updates received since the last local read
	// (competitive protocol self-invalidation counter). It saturates at
	// math.MaxUint16; the protocols read it only as min(Updates, 1) and
	// against a CompThreshold of at most math.MaxUint16, which saturation
	// leaves exact.
	Updates uint16
	State   State
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
// machine's nodes, one per node, and the line-major copy table they share:
// node n's copy of line l is slot n of row l, so the copies of one line lie
// side by side, and a coherence fan-out over a line's sharers reads one
// row instead of one page in each node's table. The shared heap is a bump
// allocator, so line numbers are dense from zero, and a lookup on the
// per-access hot path is two array indexings with no hashing, no per-line
// pointer, and no steady-state allocation. A slot is the Line itself:
// State == Invalid marks it absent.
func NewInfinites(nodes int) (*Table, []Cache) {
	t := newTable(nodes)
	views := make([]infinite, nodes)
	cs := make([]Cache, nodes)
	for i := range views {
		views[i] = infinite{t: t, node: uint64(i)}
		cs[i] = &views[i]
	}
	return t, cs
}

// NewInfinite returns one unbounded cache: the one-node case of
// NewInfinites.
func NewInfinite() Cache { return &infinite{t: newTable(1)} }

// pageSlots bounds a page of the copy table, as memsys.Paged's 512-element
// pages do: the page size is what a first touch zeroes.
const pageSlots = 512

// slabPages caps how many pages one allocation holds. A table carves its
// pages, in the order they are first touched, from slabs of 1, 1, 2, 4 and
// then slabPages pages, so a small table wastes little and a large one
// leaves the collector a few large slabs to free when its machine is
// dropped, not one object per page. With one 32 KiB object per page, the
// first 32 KiB allocation of the next machine's set-up (the mesh's link
// table at 1024 nodes) swept hundreds of dead pages and more than doubled
// that machine's construction time (DESIGN.md §10).
const slabPages = 8

// Table is a machine's line-major copy table. Row l holds every node's copy
// of line l, one slot per node. A page holds 2^shift whole rows, the most
// that fit in pageSlots slots, or one row when nodes > pageSlots, so no row
// straddles a page. A page is carved from a slab on first touch and never
// moves, so the Line pointers and rows the table hands out stay valid.
type Table struct {
	pages       [][]Line
	slab        []Line // what the last slab holds beyond the pages carved from it
	carved      int    // pages carved so far
	nodes       uint64
	shift, mask uint64 // page of row l: l>>shift; row within it: l&mask
}

func newTable(nodes int) *Table {
	shift := uint64(0)
	for nodes<<(shift+1) <= pageSlots {
		shift++
	}
	return &Table{nodes: uint64(nodes), shift: shift, mask: 1<<shift - 1}
}

// Row returns the copies of the line, one per node, allocating their page
// on first touch. A coherence fan-out indexes it by sharer; setting a
// slot's State to Invalid invalidates that node's copy.
func (t *Table) Row(line memsys.Addr) []Line {
	i := uint64(line)
	pi := i >> t.shift
	if pi >= uint64(len(t.pages)) {
		t.pages = memsys.Extend(t.pages, int(pi)+1)
	}
	p := t.pages[pi]
	if p == nil {
		n := t.nodes << t.shift
		if uint64(len(t.slab)) < n {
			t.slab = make([]Line, n*uint64(min(max(t.carved, 1), slabPages)))
		}
		p, t.slab = t.slab[:n:n], t.slab[n:]
		t.pages[pi] = p
		t.carved++
	}
	o := (i & t.mask) * t.nodes
	return p[o : o+t.nodes : o+t.nodes]
}

// infinite is one node's column of a shared copy table.
type infinite struct {
	t    *Table // shared by all the machine's nodes
	node uint64
}

// Lookup is on every access's path. An untouched page is a nil slice, so
// one bounds check covers both a missing page and the slot's offset; the
// shift is masked so that it compiles to one instruction.
func (c *infinite) Lookup(line memsys.Addr) (*Line, bool) {
	t, i := c.t, uint64(line)
	if pi := i >> (t.shift & 63); pi < uint64(len(t.pages)) {
		p := t.pages[pi]
		if o := (i&t.mask)*t.nodes + c.node; o < uint64(len(p)) && p[o].State != Invalid {
			return &p[o], true
		}
	}
	return nil, false
}

func (c *infinite) Insert(line memsys.Addr) (*Line, memsys.Addr, State, bool) {
	l := &c.t.Row(line)[c.node]
	if l.State == Invalid {
		*l = Line{State: Shared}
	}
	return l, 0, Invalid, false
}

func (c *infinite) Invalidate(line memsys.Addr) {
	if l, ok := c.Lookup(line); ok {
		l.State = Invalid
	}
}

func (c *infinite) Touch(memsys.Addr) {}
func (c *infinite) Evictions() uint64 { return 0 }

// Len counts the node's copies. A fan-out invalidates copies in their row,
// past the view, so the view keeps no count; Len is read only when a run's
// metrics are published.
func (c *infinite) Len() int {
	n := 0
	c.ForEach(func(memsys.Addr, *Line) { n++ })
	return n
}

// ForEach steps through the node's own slots, one per line, so a sweep of
// every node (the conformance audit) reads the table once.
func (c *infinite) ForEach(f func(memsys.Addr, *Line)) {
	t := c.t
	for pi, p := range t.pages {
		line := memsys.Addr(pi) << t.shift
		for o := c.node; o < uint64(len(p)); o += t.nodes {
			if l := &p[o]; l.State != Invalid {
				f(line, l)
			}
			line++
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
