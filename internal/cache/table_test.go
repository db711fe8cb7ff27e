package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"zsim/internal/memsys"
)

// The copy table's operations, decoded from a byte stream five bytes at a
// time: an operation, a node (two bytes) and a line (two bytes).
const (
	opInsert = iota
	opLookup
	opInvalidate
	opAt           // read the copy through Table.Copies
	opInvalidateAt // drop the copy through Table.Copies, as a fan-out does
	opForEach      // ForEach and Len of the node
	numOps
)

// opLines bounds the lines the operations touch: 128 groups of 8 lines, 8
// of 128 at one node.
const opLines = 1024

// checkCopyOps runs ops on the shared copy table of a machine of the
// given nodes and checks every step against a map keyed by (line, node).
// It also checks that a copy's slot never moves: once any operation has
// handed out a pointer to the slot of (line, node), every later one hands
// out the same pointer, however many tiles were carved in between.
func checkCopyOps(t *testing.T, nodes int, ops []byte) {
	type key struct {
		line memsys.Addr
		node int
	}
	tab, cs := NewInfinites(nodes)
	want := map[key]Line{}
	slot := map[key]*Line{}
	same := func(step int, k key, l *Line) {
		t.Helper()
		if p, ok := slot[k]; ok && p != l {
			t.Fatalf("step %d: node %d's slot for line %d moved", step, k.node, k.line)
		}
		slot[k] = l
	}
	forEach := func(step, n int) {
		t.Helper()
		var got, exp []memsys.Addr
		cs[n].ForEach(func(line memsys.Addr, l *Line) {
			k := key{line, n}
			if w, ok := want[k]; !ok || *l != w {
				t.Fatalf("step %d: node %d's ForEach visits line %d as %+v, want %+v (held %v)", step, n, line, *l, w, ok)
			}
			same(step, k, l)
			got = append(got, line)
		})
		for k := range want {
			if k.node == n {
				exp = append(exp, k.line)
			}
		}
		slices.Sort(exp)
		if !slices.Equal(got, exp) {
			t.Fatalf("step %d: node %d's ForEach visits lines %v, want %v in ascending order", step, n, got, exp)
		}
		if l := cs[n].Len(); l != len(exp) {
			t.Fatalf("step %d: node %d's Len = %d, want %d", step, n, l, len(exp))
		}
	}
	for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
		n := (int(ops[1])<<8 | int(ops[2])) % nodes
		k := key{memsys.Addr(int(ops[3])<<8|int(ops[4])) % opLines, n}
		w, held := want[k]
		switch ops[0] % numOps {
		case opInsert:
			l, _, _, evicted := cs[n].Insert(k.line)
			if evicted {
				t.Fatalf("step %d: an infinite cache evicted", step)
			}
			if !held {
				w = Line{State: Shared}
			}
			if *l != w {
				t.Fatalf("step %d: node %d's Insert of line %d returns %+v, want %+v", step, n, k.line, *l, w)
			}
			same(step, k, l)
			// Stamp the copy, so that a slot two keys shared would show.
			l.Version, l.ReadyAt = uint32(step), memsys.Time(n)
			want[k] = *l
		case opLookup:
			l, ok := cs[n].Lookup(k.line)
			if ok != held || ok && *l != w {
				t.Fatalf("step %d: node %d's Lookup of line %d: %v, want %v %+v", step, n, k.line, ok, held, w)
			}
			if ok {
				same(step, k, l)
			}
		case opInvalidate:
			cs[n].Invalidate(k.line)
			delete(want, k)
		case opAt, opInvalidateAt:
			l := tab.Copies(k.line).At(n)
			switch {
			case l == nil && slot[k] != nil:
				t.Fatalf("step %d: Copies(%d).At(%d) is nil, but the slot exists", step, k.line, n)
			case l == nil && held:
				t.Fatalf("step %d: Copies(%d).At(%d) is nil, but node %d holds the line", step, k.line, n, n)
			case l != nil && held && *l != w:
				t.Fatalf("step %d: Copies(%d).At(%d) holds %+v, want %+v", step, k.line, n, *l, w)
			case l != nil && !held && l.State != Invalid:
				t.Fatalf("step %d: Copies(%d).At(%d) holds %+v, but node %d does not hold the line", step, k.line, n, *l, n)
			}
			if l != nil {
				same(step, k, l)
				if ops[0]%numOps == opInvalidateAt {
					l.State = Invalid
					delete(want, k)
				}
			}
		case opForEach:
			forEach(step, n)
		}
	}
	for n := range cs {
		forEach(-1, n)
	}
}

// copyOps generates count random operations for checkCopyOps on a machine
// of the given nodes. Most pick a node and a line from a few that sit at
// tile edges, so the operations meet each other's copies.
func copyOps(rng *rand.Rand, nodes, count int) []byte {
	edgeNodes := []int{0, 1, 14, 15, 16, 17, nodes / 2, nodes - 1}
	edgeLines := []int{0, 1, 7, 8, 9, 127, 128, 129, opLines - 1}
	ops := make([]byte, 0, 5*count)
	for range count {
		n, line := rng.Intn(nodes), rng.Intn(opLines)
		if rng.Intn(4) > 0 {
			n = edgeNodes[rng.Intn(len(edgeNodes))] % nodes
		}
		if rng.Intn(4) > 0 {
			line = edgeLines[rng.Intn(len(edgeLines))]
		}
		op := rng.Intn(numOps + 2) // twice as many inserts as any other
		if op >= numOps {
			op = opInsert
		}
		ops = append(ops, byte(op), byte(n>>8), byte(n), byte(line>>8), byte(line))
	}
	return ops
}

func TestCopyTableOracle(t *testing.T) {
	for _, nodes := range []int{1, 3, 16, 17, 48, 64, 100} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			checkCopyOps(t, nodes, copyOps(rand.New(rand.NewSource(int64(nodes))), nodes, 4000))
		})
	}
}

// TestCopyTableOracleWide runs the oracle above 512 nodes: at 513 nodes,
// whose last tile column holds one node, and at the many-core cap.
func TestCopyTableOracleWide(t *testing.T) {
	for _, nodes := range []int{513, memsys.MaxProcs} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			checkCopyOps(t, nodes, copyOps(rand.New(rand.NewSource(int64(nodes))), nodes, 4000))
		})
	}
}

// FuzzCopyTable runs the oracle's operations from fuzz input on a machine
// of 1 to memsys.MaxProcs nodes.
func FuzzCopyTable(f *testing.F) {
	for _, nodes := range []int{1, 3, 16, 17, 64, 513, memsys.MaxProcs} {
		f.Add(uint16(nodes-1), copyOps(rand.New(rand.NewSource(int64(nodes))), nodes, 40))
	}
	f.Fuzz(func(t *testing.T, nodes uint16, ops []byte) {
		checkCopyOps(t, int(nodes)%memsys.MaxProcs+1, ops)
	})
}

// TestCopyTablePointersStableWide: a copy's *Line stays valid while later
// inserts carve new tiles, from new slabs, and regrow the tile vector.
func TestCopyTablePointersStableWide(t *testing.T) {
	tab, cs := NewInfinites(memsys.MaxProcs)
	l, _, _, _ := cs[5].Insert(3)
	l.Version = 42
	carved := tab.carved
	for line := memsys.Addr(0); line < 4000; line++ {
		cs[int(line)*37%memsys.MaxProcs].Insert(line)
	}
	if tab.carved < carved+1000 {
		t.Fatalf("the inserts carved %d tiles, want more than 1,000", tab.carved-carved)
	}
	if got, ok := cs[5].Lookup(3); !ok || got != l || l.Version != 42 {
		t.Fatalf("node 5's copy of line 3 moved or changed: ok=%v %p %+v, want %p with version 42", ok, got, got, l)
	}
	if got := tab.Copies(3).At(5); got != l {
		t.Fatalf("Copies(3).At(5) is %p, want %p", got, l)
	}
	l.Version = 43
	if got, _ := cs[5].Lookup(3); got.Version != 43 {
		t.Fatalf("a write through the old pointer is lost: version %d", got.Version)
	}
}

// TestCopyTableMemoryWide: at 1,024 nodes, n lines each held by one node,
// all in one column of tiles, carve ⌈n/8⌉ tiles of 2 KiB, not n rows of
// 1,024 slots (16 KiB each): the table's memory follows the copies.
func TestCopyTableMemoryWide(t *testing.T) {
	const lines = 1000
	tab, cs := NewInfinites(memsys.MaxProcs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for line := 0; line < lines; line++ {
		cs[512+line*7%16].Insert(memsys.Addr(line))
	}
	runtime.ReadMemStats(&after)
	if want := (lines + 7) / 8; tab.carved != want || countTiles(tab) != want {
		t.Fatalf("%d lines held by one node each carve %d tiles (%d in the vector), want %d", lines, tab.carved, countTiles(tab), want)
	}
	// The tiles take 250 KiB, the tile vector 64 KiB; rows took 15.6 MiB.
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("%d lines held by one node each allocate %d bytes, want under 1 MiB", lines, got)
	}
	for line := 0; line < lines; line++ {
		if _, ok := cs[512+line*7%16].Lookup(memsys.Addr(line)); !ok {
			t.Fatalf("line %d lost", line)
		}
	}
}
