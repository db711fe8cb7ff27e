package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// Property: the queue pops processors in (clock, id) order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(clocks []uint16) bool {
		q := newRunQueue(max(len(clocks), 1))
		for i, c := range clocks {
			q.push(q.key(&Proc{id: i, clock: Time(c)}))
		}
		var got []uint64
		for k := q.pop(); k != empty && len(got) <= len(clocks); k = q.pop() {
			if Time(k>>q.shift) != Time(clocks[q.id(k)]) {
				return false
			}
			got = append(got, k)
		}
		return len(got) == len(clocks) && slices.IsSorted(got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapPopEmpty: an empty queue pops empty, and its root sorts after
// every processor, so a lone runnable processor always takes Sync's fast
// path.
func TestHeapPopEmpty(t *testing.T) {
	q := newRunQueue(4)
	if k := q.pop(); k != empty {
		t.Fatalf("pop of empty queue = %#x, want empty", k)
	}
	q.push(q.key(&Proc{id: 3, clock: 9}))
	q.pop()
	if k := q.pop(); k != empty || q.n != 0 {
		t.Fatalf("pop after draining = %#x with n = %d, want empty and 0", k, q.n)
	}
	if p := (&Proc{id: 3, clock: q.limit - 1}); !q.first(p) {
		t.Fatal("the largest key does not sort before an empty queue's root")
	}
}

// checkRunQueue applies ops to a run queue over procs processors and to a
// sorted-slice reference, failing at the first difference. Each op is two
// bytes: the first picks push (0, 1), replace (2) or pop (3) from its low
// two bits, the second the key's clock and, for a push, its id. A push to a
// full queue replaces instead, and a replace on an empty queue pushes, so
// every byte string is a valid program. A replace re-queues the popped
// root's id, as the engine does when a body yields.
func checkRunQueue(t *testing.T, procs int, ops []byte) {
	t.Helper()
	q := newRunQueue(procs)
	var ref []uint64
	queued := make([]bool, procs)
	clock := func(arg byte) Time {
		switch {
		case arg == 255:
			return q.limit - 1
		case arg >= 240:
			return Time(arg) << 40
		}
		return Time(arg % 16) // many ties, broken by id
	}
	key := func(id int, arg byte) uint64 {
		return q.key(&Proc{id: id, clock: clock(arg)})
	}
	insert := func(k uint64) {
		i, _ := slices.BinarySearch(ref, k)
		ref = slices.Insert(ref, i, k)
		queued[q.id(k)] = true
	}
	take := func() uint64 {
		if len(ref) == 0 {
			return empty
		}
		k := ref[0]
		ref = ref[1:]
		queued[q.id(k)] = false
		return k
	}
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i]&3, ops[i+1]
		switch {
		case op == 3:
			if got, want := q.pop(), take(); got != want {
				t.Fatalf("op %d: pop = %#x, want %#x", i/2, got, want)
			}
		case op == 2 && len(ref) > 0, len(ref) == procs:
			want := take()
			k := key(q.id(want), arg)
			if got := q.replace(k); got != want {
				t.Fatalf("op %d: replace = %#x, want %#x", i/2, got, want)
			}
			insert(k)
		default:
			id := int(ops[i]>>2) * procs / 64 // a free id near this one
			for queued[id] {
				id = (id + 1) % procs
			}
			k := key(id, arg)
			q.push(k)
			insert(k)
		}
		if q.n != len(ref) {
			t.Fatalf("op %d: n = %d, want %d", i/2, q.n, len(ref))
		}
		for j, k := range q.keys {
			switch {
			case j >= q.n && k != empty:
				t.Fatalf("op %d: slot %d past the heap holds %#x, want empty", i/2, j, k)
			case j > 0 && j < q.n && q.keys[(j-1)/2] >= k:
				t.Fatalf("op %d: slot %d = %#x does not sort after its parent %#x", i/2, j, k, q.keys[(j-1)/2])
			}
		}
	}
	for len(ref) > 0 {
		if got, want := q.pop(), take(); got != want {
			t.Fatalf("drain: pop = %#x, want %#x", got, want)
		}
	}
	if k := q.pop(); k != empty {
		t.Fatalf("drained queue pops %#x, want empty", k)
	}
}

// TestRunQueueMatchesSortedSlice drives random pushes, replaces and pops
// against the sorted-slice reference, at queue sizes from one processor to
// the 1,024-processor maximum and its non-power-of-two neighbours.
func TestRunQueueMatchesSortedSlice(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 64, 1000, 1024} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]byte, 2*(4*procs+200))
			rng.Read(ops)
			checkRunQueue(t, procs, ops)
		}
	}
}

// FuzzRunQueue is TestRunQueueMatchesSortedSlice on arbitrary programs.
func FuzzRunQueue(f *testing.F) {
	f.Add(uint16(0), []byte{0, 1, 2, 3, 3, 0})
	f.Add(uint16(2), []byte{0, 5, 4, 5, 8, 5, 2, 0, 2, 255, 3, 0, 3, 0})
	f.Add(uint16(63), []byte{0, 240, 1, 7, 6, 7, 2, 7, 3, 1})
	f.Fuzz(func(t *testing.T, procs uint16, ops []byte) {
		checkRunQueue(t, 1+int(procs%1024), ops)
	})
}
