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
	opInvalidateAt // then drop it with the node's Invalidate, as RCcomp's self-invalidation does
	opForEach      // ForEach and Len of the node
	numOps
)

// opLines bounds the lines the operations touch: 128 groups of 8 lines, 8
// of 128 at one node.
const opLines = 1024

// checkCopyOps runs ops on the shared copy table of a machine of the
// given nodes and checks every step against a map keyed by (line, node).
// It also checks the pointer contract: while a copy is resident, every
// operation hands out the same pointer to its slot, however many tiles
// were taken in between, and once it is invalidated the slot is
// forgotten, since its tile may be given back and reused. After every
// step the tile vector must hold exactly the tiles that hold a copy, each
// counting its copies, and the table must never have carved more tiles
// than the most that held a copy at once.
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
			t.Fatalf("step %d: node %d's slot for line %d moved while resident", step, k.node, k.line)
		}
		slot[k] = l
	}
	held := map[uint64]int{} // copies per tile that holds one, by index in the vector
	peak := 0                // the most tiles that held a copy at once
	tileOf := func(k key) uint64 { return tab.group(uint64(k.line)) + uint64(k.node)/tileNodes }
	drop := func(k key) {
		if _, ok := want[k]; ok {
			if ti := tileOf(k); held[ti] > 1 {
				held[ti]--
			} else {
				delete(held, ti)
			}
		}
		delete(want, k)
		delete(slot, k)
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
	tiles := func(step int) {
		t.Helper()
		for ti, n := range held {
			if p := tab.tiles[ti]; p == nil || int(tab.counts[ti]) != n {
				t.Fatalf("step %d: tile %d of the vector is %p, counting %d, but holds %d copies", step, ti, p, tab.counts[ti], n)
			}
		}
		inVector := 0
		for ti, p := range tab.tiles {
			if p != nil {
				inVector++
			} else if tab.counts[ti] != 0 {
				t.Fatalf("step %d: tile %d has left the vector but counts %d copies", step, ti, tab.counts[ti])
			}
		}
		if inVector != len(held) {
			t.Fatalf("step %d: the vector holds %d tiles, want the %d that hold a copy", step, inVector, len(held))
		}
		if peak = max(peak, len(held)); tab.carved > peak {
			t.Fatalf("step %d: the table carved %d tiles, but at most %d held a copy at once", step, tab.carved, peak)
		}
	}
	for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
		n := (int(ops[1])<<8 | int(ops[2])) % nodes
		k := key{memsys.Addr(int(ops[3])<<8|int(ops[4])) % opLines, n}
		w, has := want[k]
		switch ops[0] % numOps {
		case opInsert:
			l, _, _, evicted := cs[n].Insert(k.line)
			if evicted {
				t.Fatalf("step %d: an infinite cache evicted", step)
			}
			if !has {
				w = Line{State: Shared}
				held[tileOf(k)]++
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
			if ok != has || ok && *l != w {
				t.Fatalf("step %d: node %d's Lookup of line %d: %v, want %v %+v", step, n, k.line, ok, has, w)
			}
			if ok {
				same(step, k, l)
			}
		case opInvalidate:
			cs[n].Invalidate(k.line)
			drop(k)
		case opAt, opInvalidateAt:
			l := tab.Copies(k.line).At(n)
			switch {
			case l == nil && has:
				t.Fatalf("step %d: Copies(%d).At(%d) is nil, but node %d holds the line", step, k.line, n, n)
			case l != nil && has && *l != w:
				t.Fatalf("step %d: Copies(%d).At(%d) holds %+v, want %+v", step, k.line, n, *l, w)
			case l != nil && !has && l.State != Invalid:
				t.Fatalf("step %d: Copies(%d).At(%d) holds %+v, but node %d does not hold the line", step, k.line, n, *l, n)
			}
			if has {
				same(step, k, l)
			}
			if ops[0]%numOps == opInvalidateAt {
				cs[n].Invalidate(k.line)
				drop(k)
			}
		case opForEach:
			forEach(step, n)
		}
		tiles(step)
	}
	for n := range cs {
		forEach(-1, n)
	}
	if msgs := tab.Audit(); len(msgs) != 0 {
		t.Fatalf("audit: %v", msgs)
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

// TestCopyTablePointersStableWide: a resident copy's *Line stays valid
// while later inserts carve new tiles, from new slabs, and regrow the tile
// vector.
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

// TestCopyTableReuseWide: at 1,024 nodes, the tiles that invalidation
// gives back are taken again before any tile is carved. One column's
// 1,000 copies, once invalidated, leave no tile in the vector, and as
// many copies of other lines in another column carve nothing.
func TestCopyTableReuseWide(t *testing.T) {
	const lines = 1000
	tab, cs := NewInfinites(memsys.MaxProcs)
	fill := func(first, col int) {
		for line := first; line < first+lines; line++ {
			cs[16*col+line*7%16].Insert(memsys.Addr(line))
		}
	}
	fill(0, 32)
	carved := tab.carved
	for line := 0; line < lines; line++ {
		cs[512+line*7%16].Invalidate(memsys.Addr(line))
	}
	if n := countTiles(tab); n != 0 || len(tab.free) != carved {
		t.Fatalf("with every copy invalidated the vector holds %d tiles and %d of %d are given back, want 0 and all", n, len(tab.free), carved)
	}
	fill(lines, 5)
	if tab.carved != carved || len(tab.free) != 0 {
		t.Fatalf("refilling %d lines carved %d tiles and left %d given back, want 0 and 0", lines, tab.carved-carved, len(tab.free))
	}
	for line := 0; line < 2*lines; line++ {
		col := 5
		if line < lines {
			col = 32
		}
		if _, ok := cs[16*col+line*7%16].Lookup(memsys.Addr(line)); ok != (line >= lines) {
			t.Fatalf("line %d: resident %v, want %v", line, ok, line >= lines)
		}
	}
	if msgs := tab.Audit(); len(msgs) != 0 {
		t.Fatalf("audit: %v", msgs)
	}
}

// TestCopyTableAudit: Audit reports a copy made Invalid past the table,
// which leaves its tile's count wrong (and an empty tile in the vector
// when it was the last), and a write through a pointer kept past its
// copy's invalidation, which puts a copy in a given-back tile.
func TestCopyTableAudit(t *testing.T) {
	tab, cs := NewInfinites(64)
	a, _, _, _ := cs[0].Insert(0)
	cs[1].Insert(0)
	b, _, _, _ := cs[20].Insert(0)
	if msgs := tab.Audit(); len(msgs) != 0 {
		t.Fatalf("audit of a sound table: %v", msgs)
	}
	a.State = Invalid // past the table: nodes 0-15's tile counts 2 copies but holds 1
	cs[20].Invalidate(0)
	b.State = Shared // through a stale pointer: a given-back tile holds a copy
	want := []string{
		"copy table: tile of lines 0x0-0x7, nodes 0-15: count 2, valid slots 1",
		"copy table: given-back tile: valid slots 1",
	}
	if got := tab.Audit(); !slices.Equal(got, want) {
		t.Fatalf("audit:\n%q\nwant\n%q", got, want)
	}
}
