package memsys

// This file implements the paged flat tables backing the simulator's
// per-access hot state. The shared heap (internal/shm) is a bump allocator,
// so simulated addresses — and everything derived from them: word indices,
// line numbers, per-home directory slots — are dense from zero. That makes
// a paged array strictly better than a hash map for hot-path state: an
// index is split into page number (i >> pageShift) and offset (i & pageMask),
// pages are fixed-size slabs allocated on first touch, and a steady-state
// access is two array indexings with no hashing, no per-entry pointers, and
// no allocation.
//
// Pages are 512 elements. Every machine builds its tables fresh, and most
// of them touch only a small part of each page, so the page size is what
// first touch costs: the zeroing of the new slab and the garbage it leaves
// for the collector. 4096-element pages made that zeroing one of the
// simulator's largest host-time costs.

const (
	// pageShift sets the page size: 1<<pageShift elements per page. 512
	// elements keeps the page vector small for realistic heaps while bounding
	// the over-allocation of a sparse touch to one small slab.
	pageShift = 9
	pageLen   = 1 << pageShift
	pageMask  = pageLen - 1
)

// Paged is a flat table over a dense uint64 index space, organized as
// fixed-size pages allocated on first touch. The zero value is an empty
// table ready for use. Element pointers returned by At and Peek remain valid
// for the table's lifetime: pages are never moved or freed.
//
// Paged is not safe for concurrent use, matching the maps it replaces (the
// simulation kernel serializes globally visible operations).
type Paged[T any] struct {
	pages [][]T
}

// At returns a pointer to element i, allocating its page on first touch.
// Steady-state calls (page already present) perform no allocation.
func (t *Paged[T]) At(i uint64) *T {
	pi := i >> pageShift
	if pi >= uint64(len(t.pages)) {
		t.grow(pi)
	}
	p := t.pages[pi]
	if p == nil {
		p = make([]T, pageLen)
		t.pages[pi] = p
	}
	return &p[i&pageMask]
}

// Peek returns a pointer to element i, or nil when its page was never
// touched. It never allocates.
func (t *Paged[T]) Peek(i uint64) *T {
	pi := i >> pageShift
	if pi >= uint64(len(t.pages)) || t.pages[pi] == nil {
		return nil
	}
	return &t.pages[pi][i&pageMask]
}

// Load returns element i by value, or the zero value when its page was
// never touched. It never allocates — the right read primitive for state
// where "absent" and "zero" coincide (shared memory reads as zero before
// the first write).
func (t *Paged[T]) Load(i uint64) T {
	if p := t.Peek(i); p != nil {
		return *p
	}
	var zero T
	return zero
}

// grow extends the page vector to cover page pi in one step, at least
// doubling its capacity (amortized: it happens only when the heap's
// high-water mark crosses into a new page, and a far sparse touch costs
// one allocation, not one append per skipped page).
func (t *Paged[T]) grow(pi uint64) {
	n := int(pi) + 1
	if n > cap(t.pages) {
		pages := make([][]T, n, max(n, 2*cap(t.pages)))
		copy(pages, t.pages)
		t.pages = pages
		return
	}
	t.pages = t.pages[:n] // the vector never shrinks, so the tail is nil
}

// ForEach visits every element of every allocated page in ascending index
// order. Untouched elements of a touched page are visited too (they hold
// the zero value); callers that need presence must mark it in T, with a
// valid bit or a field whose zero value means absent (cache.Line's State).
// The table must not grow during iteration.
func (t *Paged[T]) ForEach(f func(i uint64, v *T)) {
	for pi := range t.pages {
		p := t.pages[pi]
		if p == nil {
			continue
		}
		base := uint64(pi) << pageShift
		for o := range p {
			f(base+uint64(o), &p[o])
		}
	}
}

// Len returns one past the highest index the page vector covers; every
// index at or above it is untouched.
func (t *Paged[T]) Len() uint64 { return uint64(len(t.pages)) << pageShift }

// Pages returns the number of allocated pages (memory accounting and tests).
func (t *Paged[T]) Pages() int {
	n := 0
	for _, p := range t.pages {
		if p != nil {
			n++
		}
	}
	return n
}
