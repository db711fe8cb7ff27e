// Package cache models the per-processor private caches of the simulated
// CC-NUMA machine. The paper's evaluation assumes infinite caches (so the
// only read misses are cold and coherence misses); the finite set-associative
// LRU variant implements the paper's §7 "open issues" extension, introducing
// capacity and conflict misses.
//
// A machine's infinite caches share one copy table (NewInfinites), cut
// into tiles of 8 lines × 16 nodes. A tile is taken when a copy is first
// placed in it and given back when its last copy is invalidated, so the
// table's memory follows the copies a run holds at once, not lines ×
// nodes. A coherence fan-out reads a line's copies through Table.Copies,
// one tile per 16 nodes, and indexes them by sharer; it invalidates a copy
// with its node's Invalidate. Finite caches have no table; a fan-out asks
// each sharer's cache with Lookup.
package cache

import (
	"fmt"
	"math/bits"

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
// machine's nodes, one per node, and the copy table they share. The shared
// heap is a bump allocator, so line numbers are dense from zero, and a
// lookup on the per-access hot path is two array indexings with no
// hashing and no steady-state allocation. A slot is the Line itself:
// State == Invalid marks it absent.
func NewInfinites(nodes int) (*Table, []Cache) {
	width := min(tileWidth, uint64(bits.Len(uint(nodes-1))))
	t := &Table{cols: uint64(nodes+tileNodes-1) / tileNodes, width: width, lines: tileShift - width}
	views := make([]infinite, nodes)
	cs := make([]Cache, nodes)
	for i := range views {
		views[i] = infinite{t: t, col: uint64(i) / tileNodes, node: uint64(i) % tileNodes}
		cs[i] = &views[i]
	}
	return t, cs
}

// NewInfinite returns one unbounded cache: the one-node case of
// NewInfinites.
func NewInfinite() Cache {
	_, cs := NewInfinites(1)
	return cs[0]
}

// The copy table is cut into tiles of 128 slots, 2 KiB: 8 lines × 16
// nodes. A machine of fewer nodes has one column of tiles, as wide as its
// node count rounded up to a power of two, each holding 128/width lines.
// A tile is taken when the first copy is placed in it and given back when
// its last copy is invalidated, so the table's memory follows the copies a
// run holds at once, not lines × nodes.
const (
	tileShift = 7 // a tile holds 1<<tileShift slots
	tileWidth = 4 // and a row of 1<<tileWidth nodes for each of its lines
	tileNodes = 1 << tileWidth
	tileSlots = 1 << tileShift
)

// slabTiles caps how many tiles one allocation holds. A table carves its
// tiles, in the order they are first needed, from slabs of 1, 1, 2, 4 and
// so on up to slabTiles tiles (64 KiB), so a small table wastes little and
// a large one leaves the collector a few large slabs to free when its
// machine is dropped, not one object per tile. With one 32 KiB object per
// page of whole rows, the first 32 KiB allocation of the next machine's
// set-up (the mesh's link table at 1024 nodes) swept hundreds of dead pages
// and more than doubled that machine's construction time (DESIGN.md §10).
const slabTiles = 32

// tile holds the copies of 1<<(tileShift-width) consecutive lines at
// 1<<width consecutive nodes, line by line: one line's copies at those
// nodes lie side by side.
type tile [tileSlots]Line

// Table is a machine's copy table. Node n's copy of line l is slot
// (l<<width | n%16) % 128 of tile (l>>lines)·cols + n/16, where cols =
// ⌈nodes/16⌉, and from 16 nodes up width is 4 (2^width nodes a tile row)
// and lines 3 (2^lines lines a tile). The table counts each tile's copies.
// A tile enters the vector with its first copy, taken from the free list
// or else carved from a slab, and leaves it for the free list with its
// last, so a Line pointer the table hands out stays valid while its copy
// is resident: once the copy is invalidated, its tile may come to hold
// other lines' copies. Every invalidation goes through a node's
// Cache.Invalidate, which keeps the counts; Audit reports a copy made
// Invalid past it.
type Table struct {
	tiles  []*tile // nil where the tile holds no copy
	counts []uint8 // the copies each tile of the vector holds, 0 where nil
	free   []*tile // tiles given back, every slot Invalid
	slab   []tile  // what the last slab holds beyond the tiles carved from it
	carved int     // tiles carved so far: the most the vector held at once
	cols   uint64  // tiles per group of lines
	width  uint64  // log2 of a tile row's nodes
	lines  uint64  // log2 of a tile's lines: tileShift - width
}

// group is the index in the tile vector of the first tile of line i's
// group of lines. The shift is masked so that it compiles to one
// instruction.
func (t *Table) group(i uint64) uint64 { return i >> (t.lines & 63) * t.cols }

// slot is the index of line i's copy at the n-th node of a tile's column.
func (t *Table) slot(i, n uint64) uint64 { return (i<<(t.width&63) | n) % tileSlots }

// tile returns the index in the tile vector of column col's tile in the
// group of line i, and the tile, taking one on first touch: a given-back
// tile, whose slots are all Invalid, or else a new one carved from a slab.
// The vector grows by whole groups, so a group's tiles are always one
// stretch of it.
func (t *Table) tile(i, col uint64) (uint64, *tile) {
	g := t.group(i)
	if g >= uint64(len(t.tiles)) {
		t.tiles = memsys.Extend(t.tiles, int(g+t.cols))
		t.counts = memsys.Extend(t.counts, int(g+t.cols))
	}
	p := t.tiles[g+col]
	if p == nil {
		if k := len(t.free) - 1; k >= 0 {
			p, t.free = t.free[k], t.free[:k]
		} else {
			if len(t.slab) == 0 {
				t.slab = make([]tile, min(max(t.carved, 1), slabTiles))
			}
			p, t.slab = &t.slab[0], t.slab[1:]
			t.carved++
		}
		t.tiles[g+col] = p
	}
	return g + col, p
}

// Audit checks the table's bookkeeping and describes each fault, in tile
// order: a tile whose count differs from the copies it holds (an empty
// tile left in the vector is one), or a given-back tile that holds a copy.
// Either follows from a copy made Invalid past Cache.Invalidate, or from
// a write through a pointer kept past its copy's invalidation.
func (t *Table) Audit() []string {
	var out []string
	for ti, p := range t.tiles {
		if held := resident(p); held != int(t.counts[ti]) {
			lines, col := uint64(ti)/t.cols<<t.lines, uint64(ti)%t.cols<<t.width
			out = append(out, fmt.Sprintf("copy table: tile of lines %#x-%#x, nodes %d-%d: count %d, valid slots %d",
				lines, lines+1<<t.lines-1, col, col+1<<t.width-1, t.counts[ti], held))
		}
	}
	for _, p := range t.free {
		if held := resident(p); held != 0 {
			out = append(out, fmt.Sprintf("copy table: given-back tile: valid slots %d", held))
		}
	}
	return out
}

// resident counts the tile's valid slots; a nil tile holds none.
func resident(p *tile) int {
	n := 0
	if p != nil {
		for k := range p {
			if p[k].State != Invalid {
				n++
			}
		}
	}
	return n
}

// Copies returns a view of the line's copies, one per node, for a
// coherence fan-out to index by sharer. It allocates nothing. The view
// holds until the next Insert, which may regrow the table's vector.
func (t *Table) Copies(line memsys.Addr) Copies {
	i := uint64(line)
	if g := t.group(i); g < uint64(len(t.tiles)) {
		return Copies{tiles: t.tiles[g : g+t.cols : g+t.cols], row: t.slot(i, 0)}
	}
	return Copies{}
}

// Copies is one line's copies in a Table: the line's tiles, one per
// tileNodes nodes, and the line's row within each. Keep it within 32
// bytes: the compiler keeps a struct that small in registers through an
// update fan-out's loop, and copies a larger one through the stack for
// each sharer.
type Copies struct {
	tiles []*tile
	row   uint64 // the line's first slot in each tile
}

// At returns node n's copy of the line, or nil when n's tile holds no copy
// of any of its lines. A copy At returns is resident only when its State
// is not Invalid; its node's Cache.Invalidate, not a store to State,
// drops it.
func (c Copies) At(n int) *Line {
	if k := uint(n) / tileNodes; k < uint(len(c.tiles)) && c.tiles[k] != nil {
		return &c.tiles[k][(c.row|uint64(n)%tileNodes)%tileSlots]
	}
	return nil
}

// infinite is one node's view of a shared copy table.
type infinite struct {
	t    *Table // shared by all the machine's nodes
	col  uint64 // the node's column of tiles
	node uint64 // the node's slot within each of its tiles' rows
}

// Lookup is on every access's path: one load of the tile's pointer and
// one of the slot's State.
func (c *infinite) Lookup(line memsys.Addr) (*Line, bool) {
	t, i := c.t, uint64(line)
	if ti := t.group(i) + c.col; ti < uint64(len(t.tiles)) {
		if p := t.tiles[ti]; p != nil {
			if l := &p[t.slot(i, c.node)]; l.State != Invalid {
				return l, true
			}
		}
	}
	return nil, false
}

func (c *infinite) Insert(line memsys.Addr) (*Line, memsys.Addr, State, bool) {
	t, i := c.t, uint64(line)
	ti, p := t.tile(i, c.col)
	l := &p[t.slot(i, c.node)]
	if l.State == Invalid {
		*l = Line{State: Shared}
		t.counts[ti]++
	}
	return l, 0, Invalid, false
}

// Invalidate drops the node's copy of the line, if it is resident, and
// gives its tile back when it was the tile's last.
func (c *infinite) Invalidate(line memsys.Addr) {
	t, i := c.t, uint64(line)
	if ti := t.group(i) + c.col; ti < uint64(len(t.tiles)) {
		if p := t.tiles[ti]; p != nil {
			if l := &p[t.slot(i, c.node)]; l.State != Invalid {
				l.State = Invalid
				if t.counts[ti]--; t.counts[ti] == 0 {
					t.free = append(t.free, p)
					t.tiles[ti] = nil
				}
			}
		}
	}
}

func (c *infinite) Touch(memsys.Addr) {}
func (c *infinite) Evictions() uint64 { return 0 }

// Len counts the node's copies. The table counts copies per tile, not per
// node, so Len steps through the node's column; only the metrics harvest
// reads it, when a run's metrics are published.
func (c *infinite) Len() int {
	n := 0
	c.ForEach(func(memsys.Addr, *Line) { n++ })
	return n
}

// ForEach steps through the node's column of tiles, in ascending line
// order, so a sweep of every node (the conformance audit) reads each tile
// once per node of its column.
func (c *infinite) ForEach(f func(memsys.Addr, *Line)) {
	t := c.t
	lines := uint64(1) << t.lines
	for ti, line := c.col, uint64(0); ti < uint64(len(t.tiles)); ti, line = ti+t.cols, line+lines {
		p := t.tiles[ti]
		if p == nil {
			continue
		}
		for k := line; k < line+lines; k++ {
			if l := &p[t.slot(k, c.node)]; l.State != Invalid {
				f(memsys.Addr(k), l)
			}
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
