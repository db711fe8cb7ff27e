// Package directory implements the full-map directory of the simulated
// CC-NUMA machine. Lines are interleaved across the nodes' homes; each line's
// entry records its global coherence state, the presence bits of the sharing
// processors, the owner of a Dirty line, the "special" state of the paper's
// adaptive selective-write protocol, and the version that the conformance
// checker compares cached copies against.
package directory

import (
	"fmt"
	"math/bits"

	"zsim/internal/memsys"
)

// State is a directory entry's global state.
type State uint8

const (
	// untouched marks a table slot no request has reached yet: the zero
	// value, so a fresh page reads as absent (cache.Line's Invalid plays
	// the same part in the copy table).
	untouched State = iota
	// Uncached: no processor holds the line.
	Uncached
	// SharedClean: one or more read-only copies; memory is up to date.
	SharedClean
	// Dirty: exactly one processor owns the line in Modified state.
	Dirty
	// Special: adaptive-protocol state — the line has an established
	// sharing pattern and writes are propagated as selective updates to
	// the presence-bit set (paper §4, RCadapt).
	Special
)

func (s State) String() string {
	switch s {
	case Uncached:
		return "U"
	case SharedClean:
		return "S"
	case Dirty:
		return "D"
	case Special:
		return "X"
	}
	return "?"
}

// BitsetWords is the width of a presence set in 64-bit words, sized for
// memsys.MaxProcs processors.
const BitsetWords = memsys.MaxProcs / 64

// Bitset is a set of processor ids covering memsys.MaxProcs processors.
// The zero value is the empty set.
//
// The representation is width-adaptive so the many-core cap costs small
// machines nothing: processors 0–63 live in one inline word (the entire
// footprint of a machine at or below the seed's 64-processor ceiling, and
// the entry stays compact inside the paged directory table), while the
// high words are allocated at most once per set, the first time a
// processor >= 64 is added. Machines with at most 64 processors therefore
// never allocate (the per-request hot path stays allocation-free, pinned
// by AllocsPerRun); larger machines pay one amortized allocation per
// directory entry. A Bitset must not be copied once a high processor has
// been added (the high words would be shared); the directory only ever
// hands out pointers to entries in place.
type Bitset struct {
	w0  uint64                   // processors 0..63
	ext *[BitsetWords - 1]uint64 // processors 64..MaxProcs-1, nil until needed
}

// Add inserts processor p.
func (b *Bitset) Add(p int) {
	if uint(p) < 64 {
		b.w0 |= 1 << uint(p)
		return
	}
	if b.ext == nil {
		b.ext = new([BitsetWords - 1]uint64)
	}
	b.ext[uint(p)/64-1] |= 1 << (uint(p) % 64)
}

// Remove deletes processor p.
func (b *Bitset) Remove(p int) {
	if uint(p) < 64 {
		b.w0 &^= 1 << uint(p)
		return
	}
	if b.ext != nil {
		b.ext[uint(p)/64-1] &^= 1 << (uint(p) % 64)
	}
}

// Has reports membership of processor p.
func (b *Bitset) Has(p int) bool {
	if uint(p) < 64 {
		return b.w0&(1<<uint(p)) != 0
	}
	return b.ext != nil && b.ext[uint(p)/64-1]&(1<<(uint(p)%64)) != 0
}

// Count returns the set's cardinality.
func (b *Bitset) Count() int {
	n := bits.OnesCount64(b.w0)
	if b.ext != nil {
		for _, w := range b.ext {
			n += bits.OnesCount64(w)
		}
	}
	return n
}

// Clear empties the set. An allocated high-word block is kept (zeroed) so
// a recycled entry does not reallocate it.
func (b *Bitset) Clear() {
	b.w0 = 0
	if b.ext != nil {
		*b.ext = [BitsetWords - 1]uint64{}
	}
}

// AppendTo appends the members to dst in ascending processor order and
// returns the extended slice. It is the one way to list a set: the
// coherence fan-outs list a line's sharers once, then work on the list, so
// they may change the set while they walk it.
func (b *Bitset) AppendTo(dst []int) []int {
	for w := b.w0; w != 0; w &= w - 1 {
		dst = append(dst, bits.TrailingZeros64(w))
	}
	if b.ext != nil {
		for i, w := range b.ext {
			for ; w != 0; w &= w - 1 {
				dst = append(dst, (i+1)*64+bits.TrailingZeros64(w))
			}
		}
	}
	return dst
}

// List returns the members in ascending order.
func (b *Bitset) List() []int { return b.AppendTo(make([]int, 0, b.Count())) }

// Entry is a directory entry for one cache line: one 32-byte slot of the
// directory's table, fields widest first (TestEntrySize pins the size).
type Entry struct {
	Sharers Bitset

	// Version counts the write transactions that have made new contents of
	// the line globally visible (ownership acquisitions and update fan-outs).
	// Every valid cached copy must carry the entry's current version; a copy
	// left behind is a stale copy, the defect the conformance checker's
	// staleness invariant detects. A copy holds it in 32 bits
	// (cache.Line.Version), so the protocols never bump it past
	// math.MaxUint32; the field stays 64 bits wide because zbench's cost
	// ledger sums it as a uint64, and the entry is 32 bytes either way.
	Version uint64

	// Owner is the node holding the line Modified, valid when State ==
	// Dirty. A node id is below memsys.MaxProcs, so 32 bits hold it.
	Owner int32
	State State
}

func (e *Entry) String() string {
	return fmt.Sprintf("{%s sharers=%v owner=%d v%d}", e.State, e.Sharers.List(), e.Owner, e.Version)
}

// Directory holds every line's entry in one paged flat table indexed by
// line number, so an access on the per-request hot path is two array
// indexings: no hashing, no per-entry pointer, no steady-state allocation.
// A slot whose State is still the zero value is a line no request has
// touched.
type Directory struct {
	procs    int
	lineSize int
	t        memsys.Paged[Entry]
	// allocs counts the entries ever created (directory occupancy growth).
	allocs uint64
}

// New creates the directory of a procs-node machine with the given
// coherence unit.
func New(procs, lineSize int) *Directory {
	return &Directory{procs: procs, lineSize: lineSize}
}

// Home returns the home node of the line containing addr.
func (d *Directory) Home(addr memsys.Addr) int {
	return int(memsys.Line(addr, d.lineSize) % memsys.Addr(d.procs))
}

// Entry returns the directory entry for the line containing addr, creating
// an Uncached entry on first touch.
func (d *Directory) Entry(addr memsys.Addr) *Entry {
	e := d.t.At(uint64(memsys.Line(addr, d.lineSize)))
	if e.State == untouched {
		e.State = Uncached
		d.allocs++
	}
	return e
}

// Lookup returns the entry if it exists (the line has been touched).
func (d *Directory) Lookup(addr memsys.Addr) (*Entry, bool) {
	e := d.t.Peek(uint64(memsys.Line(addr, d.lineSize)))
	if e == nil || e.State == untouched {
		return nil, false
	}
	return e, true
}

// Allocs returns the number of entries ever created. Entries are never
// deallocated, so this equals Entries(); it exists as a stable counter for
// the metrics layer's directory-occupancy accounting.
func (d *Directory) Allocs() uint64 { return d.allocs }

// Entries returns the number of allocated entries (equal to Allocs, since
// entries are never deallocated).
func (d *Directory) Entries() int { return int(d.allocs) }

// LineSize returns the directory's coherence unit.
func (d *Directory) LineSize() int { return d.lineSize }

// ForEach visits every allocated entry in ascending line order. Callers
// must not mutate the directory during iteration; it exists for invariant
// checking and debugging.
func (d *Directory) ForEach(f func(line memsys.Addr, e *Entry)) {
	d.t.ForEach(func(line uint64, e *Entry) {
		if e.State != untouched {
			f(memsys.Addr(line), e)
		}
	})
}
