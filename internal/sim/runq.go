package sim

import (
	"fmt"
	"math/bits"
)

// empty is the key of every slot past the end of the run queue. No
// processor's key equals it: the id field is bits.Len(procs) wide, so all
// ones there is at least procs, which no id reaches.
const empty = ^uint64(0)

// runQueue is the engine's run queue: a binary min-heap of packed keys
// clock<<shift | id, so the (clock, id) dispatch order is one unsigned
// compare that loads no Proc. The slots past the heap hold empty, which
// sorts after every key: an empty queue's root reads as empty, and a
// missing right child loses every comparison.
type runQueue struct {
	keys []uint64 // keys[:n] is the heap; keys[n:] are empty
	n    int
	// shift is bits.Len(procs), the id field's width. Shifts by it are
	// written shift&63, which spares them Go's case for counts of 64 or more.
	shift uint
	limit Time // the first clock a key cannot hold
}

func newRunQueue(procs int) runQueue {
	shift := uint(bits.Len(uint(procs)))
	q := runQueue{keys: make([]uint64, procs+1), shift: shift, limit: 1 << (64 - shift)}
	q.reset()
	return q
}

// reset empties the queue.
func (q *runQueue) reset() {
	for i := range q.keys {
		q.keys[i] = empty
	}
	q.n = 0
}

// key packs p's (clock, id). A clock at or past limit cannot be packed: it
// would lose its top bits and sort p too early. Only a bug reaches it — the
// limit is 2^53 cycles at 1,024 processors — so it panics instead.
func (q *runQueue) key(p *Proc) uint64 {
	if p.clock >= q.limit {
		panic(q.pastRange(p))
	}
	return uint64(p.clock)<<(q.shift&63) | uint64(p.id)
}

// pastRange is key's panic message, kept out of line so key inlines.
//
//go:noinline
func (q *runQueue) pastRange(p *Proc) string {
	return fmt.Sprintf("sim: processor %d's clock %d is past the run queue's key range (%d cycles at %d-bit ids)",
		p.id, p.clock, q.limit, q.shift)
}

// first reports whether p sorts before every queued processor. It compares
// (clock, id) with the root's fields rather than packing p, so a clock a key
// cannot hold sorts after every root — the empty root's clock field is
// limit − 1 — and the caller's trap reaches key's panic.
func (q *runQueue) first(p *Proc) bool {
	root, c := q.keys[0], uint64(p.clock)
	rc := root >> (q.shift & 63)
	return c < rc || c == rc && p.id < q.id(root)
}

// id returns the processor id packed in k.
func (q *runQueue) id(k uint64) int { return int(k & (1<<(q.shift&63) - 1)) }

// push adds k.
func (q *runQueue) push(k uint64) {
	q.n++
	q.rise(q.n-1, k)
}

// pop removes and returns the root, or empty if the queue is empty.
func (q *runQueue) pop() uint64 {
	top := q.keys[0]
	if q.n == 0 {
		return top
	}
	q.n--
	last := q.keys[q.n]
	q.keys[q.n] = empty
	if q.n > 0 {
		q.fill(last)
	}
	return top
}

// replace removes the root and adds k in one pass, returning the old root:
// pop followed by push. When k sorts after the root, as a yielding
// processor's key does, this is also push followed by pop. The queue must
// not be empty; a yielding processor never finds it so, because an empty
// queue's root sorts after every key and Sync's fast path then returns.
func (q *runQueue) replace(k uint64) uint64 {
	top := q.keys[0]
	q.fill(k)
	return top
}

// fill refills the hole at the root with k bottom-up: the hole walks down
// to a leaf along the smaller child, then k rises from there. A yielding
// processor sorts behind most of the queue, so k seldom rises more than a
// level, where a top-down sift would compare it against both children at
// every level. The child is picked without a branch: min, and the borrow of
// right − left.
func (q *runQueue) fill(k uint64) {
	keys := q.keys
	i := 0
	for c := 1; c < q.n; c = 2*i + 1 {
		l, r := keys[c], keys[c+1]
		_, right := bits.Sub64(r, l, 0)
		keys[i] = min(l, r)
		i = c + int(right)
	}
	q.rise(i, k)
}

// rise moves k up from the hole at i until its parent sorts before it.
func (q *runQueue) rise(i int, k uint64) {
	keys := q.keys
	for i > 0 {
		parent := (i - 1) / 2
		if keys[parent] < k {
			break
		}
		keys[i] = keys[parent]
		i = parent
	}
	keys[i] = k
}
