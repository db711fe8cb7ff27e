// Package directory implements the full-map directories of the simulated
// CC-NUMA machine. Each node keeps a directory entry for every cache line
// whose home it is (lines are interleaved across nodes); the entry records
// the line's global coherence state, the presence bits of the sharing
// processors, and protocol-specific metadata: the "special" state of the
// paper's adaptive selective-write protocol and the outstanding-write
// availability timestamp implementing the z-machine's counter mechanism.
package directory

import (
	"fmt"
	"math/bits"

	"zsim/internal/memsys"
)

// State is a directory entry's global state.
type State uint8

const (
	// Uncached: no processor holds the line.
	Uncached State = iota
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
// the entry stays compact inside the paged directory tables), while the
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

// ForEach visits members in ascending processor order. Iteration reads each
// word once before visiting its members, so removing already-visited or
// not-yet-visited members of the same word from inside f does not disturb
// the traversal (the update protocols prune sharers mid-iteration).
func (b *Bitset) ForEach(f func(p int)) {
	for w := b.w0; w != 0; w &= w - 1 {
		f(bits.TrailingZeros64(w))
	}
	if b.ext == nil {
		return
	}
	for i := range b.ext {
		for w := b.ext[i]; w != 0; w &= w - 1 {
			f((i+1)*64 + bits.TrailingZeros64(w))
		}
	}
}

// List returns the members in ascending order.
func (b *Bitset) List() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(p int) { out = append(out, p) })
	return out
}

// Entry is a directory entry for one cache line.
type Entry struct {
	State   State
	Sharers Bitset
	Owner   int // valid when State == Dirty

	// AvailableAt implements the z-machine's per-block counter: the time by
	// which all outstanding writes to the block have propagated to every
	// consumer. A z-machine read before this time stalls (inherent
	// communication cost); the counter-is-zero condition of the paper is
	// exactly now >= AvailableAt.
	AvailableAt memsys.Time

	// Version counts the write transactions that have made new contents of
	// the line globally visible (ownership acquisitions and update fan-outs).
	// Every valid cached copy must carry the entry's current version; a copy
	// left behind is a stale copy, the defect the conformance checker's
	// staleness invariant detects.
	Version uint64
}

func (e *Entry) String() string {
	return fmt.Sprintf("{%s sharers=%v owner=%d avail=%d v%d}", e.State, e.Sharers.List(), e.Owner, e.AvailableAt, e.Version)
}

// dslot is one paged-table slot of a home's directory: the entry plus a
// valid bit distinguishing a touched line from the zero value.
type dslot struct {
	e     Entry
	valid bool
}

// Directory is the collection of all nodes' directories. Each home keeps
// its entries in a paged flat table indexed by the line's per-home slot
// (line / procs — lines are interleaved round-robin, so the slots of one
// home are dense from zero). An entry access on the per-request hot path is
// two array indexings: no hashing, no per-entry pointer, no steady-state
// allocation.
type Directory struct {
	procs    int
	lineSize int
	homes    []memsys.Paged[dslot]
	// allocs counts the entries ever created (directory occupancy growth).
	allocs uint64
}

// New creates directories for every node.
func New(procs, lineSize int) *Directory {
	return &Directory{
		procs:    procs,
		lineSize: lineSize,
		homes:    make([]memsys.Paged[dslot], procs),
	}
}

// Home returns the home node of the line containing addr.
func (d *Directory) Home(addr memsys.Addr) int {
	return int(memsys.Line(addr, d.lineSize) % memsys.Addr(d.procs))
}

// Entry returns the directory entry for the line containing addr, creating
// an Uncached entry on first touch.
func (d *Directory) Entry(addr memsys.Addr) *Entry {
	line := memsys.Line(addr, d.lineSize)
	home := int(line % memsys.Addr(d.procs))
	s := d.homes[home].At(uint64(line) / uint64(d.procs))
	if !s.valid {
		s.valid = true
		d.allocs++
	}
	return &s.e
}

// Lookup returns the entry if it exists (the line has been touched).
func (d *Directory) Lookup(addr memsys.Addr) (*Entry, bool) {
	line := memsys.Line(addr, d.lineSize)
	home := int(line % memsys.Addr(d.procs))
	s := d.homes[home].Peek(uint64(line) / uint64(d.procs))
	if s == nil || !s.valid {
		return nil, false
	}
	return &s.e, true
}

// Allocs returns the number of entries ever created. Entries are never
// deallocated, so this equals Entries(); it exists as a stable counter for
// the metrics layer's directory-occupancy accounting.
func (d *Directory) Allocs() uint64 { return d.allocs }

// Entries returns the number of allocated entries across all homes (equal
// to Allocs, since entries are never deallocated).
func (d *Directory) Entries() int { return int(d.allocs) }

// LineSize returns the directory's coherence unit.
func (d *Directory) LineSize() int { return d.lineSize }

// ForEach visits every allocated entry, home by home in ascending slot
// order. Callers must not mutate the directory during iteration; it exists
// for invariant checking and debugging.
func (d *Directory) ForEach(f func(line memsys.Addr, e *Entry)) {
	for home := range d.homes {
		d.homes[home].ForEach(func(slot uint64, s *dslot) {
			if s.valid {
				f(memsys.Addr(slot)*memsys.Addr(d.procs)+memsys.Addr(home), &s.e)
			}
		})
	}
}
