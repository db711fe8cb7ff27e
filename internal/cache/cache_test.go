package cache

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"

	"zsim/internal/memsys"
)

func TestInfiniteInsertLookup(t *testing.T) {
	c := NewInfinite()
	if _, ok := c.Lookup(7); ok {
		t.Fatal("empty cache should miss")
	}
	l, _, _, ev := c.Insert(7)
	if ev {
		t.Fatal("infinite cache must never evict")
	}
	l.State = Modified
	got, ok := c.Lookup(7)
	if !ok || got.State != Modified {
		t.Fatalf("lookup after insert: ok=%v state=%v", ok, got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestInfiniteInsertIdempotent(t *testing.T) {
	c := NewInfinite()
	l1, _, _, _ := c.Insert(3)
	l1.State = Modified
	l2, _, _, _ := c.Insert(3)
	if l2.State != Modified {
		t.Fatal("re-insert must return the existing line, not reset it")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestInfiniteInvalidate(t *testing.T) {
	c := NewInfinite()
	c.Insert(9)
	c.Invalidate(9)
	if _, ok := c.Lookup(9); ok {
		t.Fatal("line present after invalidate")
	}
	c.Invalidate(9) // idempotent
}

func TestInfiniteForEach(t *testing.T) {
	c := NewInfinite()
	for i := memsys.Addr(0); i < 10; i++ {
		c.Insert(i)
	}
	seen := map[memsys.Addr]bool{}
	c.ForEach(func(a memsys.Addr, _ *Line) { seen[a] = true })
	if len(seen) != 10 {
		t.Fatalf("ForEach visited %d lines, want 10", len(seen))
	}
}

func TestFiniteEvictsLRU(t *testing.T) {
	c := NewFinite(2, 2) // one set, two ways
	c.Insert(0)
	c.Insert(1)
	c.Touch(0) // 0 is now most recent
	_, victim, _, ev := c.Insert(2)
	if !ev || victim != 1 {
		t.Fatalf("evicted=%v victim=%d, want eviction of line 1", ev, victim)
	}
	if _, ok := c.Lookup(1); ok {
		t.Fatal("evicted line still resident")
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("recently used line was evicted")
	}
}

func TestFiniteVictimStateReported(t *testing.T) {
	c := NewFinite(1, 1)
	l, _, _, _ := c.Insert(0)
	l.State = Modified
	_, victim, vstate, ev := c.Insert(1)
	if !ev || victim != 0 || vstate != Modified {
		t.Fatalf("ev=%v victim=%d state=%v, want dirty eviction of line 0", ev, victim, vstate)
	}
}

func TestFiniteSetIsolation(t *testing.T) {
	c := NewFinite(4, 1)       // 4 direct-mapped sets
	c.Insert(0)                // set 0
	c.Insert(1)                // set 1
	_, _, _, ev := c.Insert(5) // set 1: evicts 1, not 0
	if !ev {
		t.Fatal("conflict in set 1 should evict")
	}
	if _, ok := c.Lookup(0); !ok {
		t.Fatal("line in a different set was disturbed")
	}
}

func TestFiniteInvalidateFreesWay(t *testing.T) {
	c := NewFinite(1, 1)
	c.Insert(0)
	c.Invalidate(0)
	if c.Len() != 0 {
		t.Fatalf("Len = %d after invalidate, want 0", c.Len())
	}
	_, _, _, ev := c.Insert(1)
	if ev {
		t.Fatal("insert into freed way should not evict")
	}
}

func TestFiniteReinsertKeepsMetadata(t *testing.T) {
	c := NewFinite(4, 2)
	l, _, _, _ := c.Insert(0)
	l.Updates = 3
	l2, _, _, ev := c.Insert(0)
	if ev || l2.Updates != 3 {
		t.Fatalf("re-insert reset metadata: ev=%v updates=%d", ev, l2.Updates)
	}
}

func TestNewFinitePanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFinite(10, 4)
}

// Property: a finite cache never exceeds its capacity and Len matches the
// number of lines ForEach visits.
func TestFiniteCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := NewFinite(16, 4)
		for _, a := range addrs {
			c.Insert(memsys.Addr(a))
		}
		if c.Len() > 16 {
			return false
		}
		n := 0
		c.ForEach(func(memsys.Addr, *Line) { n++ })
		return n == c.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: after Insert(a), Lookup(a) hits, for both variants.
func TestInsertThenLookupProperty(t *testing.T) {
	f := func(a uint32, finiteCache bool) bool {
		var c Cache
		if finiteCache {
			c = NewFinite(64, 4)
		} else {
			c = NewInfinite()
		}
		c.Insert(memsys.Addr(a))
		_, ok := c.Lookup(memsys.Addr(a))
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The finite cache must behave identically to the infinite cache while the
// working set fits.
func TestFiniteMatchesInfiniteWhenFitting(t *testing.T) {
	fin := NewFinite(256, 4)
	inf := NewInfinite()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		a := memsys.Addr(rng.Intn(64)) // 64 distinct lines < 256, and < 4 per set
		switch rng.Intn(3) {
		case 0:
			fin.Insert(a)
			inf.Insert(a)
		case 1:
			_, h1 := fin.Lookup(a)
			_, h2 := inf.Lookup(a)
			if h1 != h2 {
				t.Fatalf("step %d: finite hit=%v infinite hit=%v for line %d", i, h1, h2, a)
			}
		case 2:
			fin.Invalidate(a)
			inf.Invalidate(a)
		}
	}
	if fin.Len() != inf.Len() {
		t.Fatalf("Len: finite=%d infinite=%d", fin.Len(), inf.Len())
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("state strings wrong")
	}
	if State(99).String() != "?" {
		t.Fatal("unknown state should print ?")
	}
}

// checkSharedTable exercises a machine's shared copy table: every node's
// copy of a line is its own and sits where the tile geometry puts it, the
// table carves a tile only where a copy was placed, Len and ForEach see
// only the node's own copies (in ascending line order), and an invalidated
// slot comes back reset.
func checkSharedTable(t *testing.T, nodes int) {
	tab, cs := NewInfinites(nodes)
	if len(cs) != nodes {
		t.Fatalf("NewInfinites(%d) returns %d caches", nodes, len(cs))
	}
	// Node n holds lines n%7 and shared, and odd nodes also 100+n%5: the
	// nodes hold different counts and share every line with other nodes.
	const shared = memsys.Addr(5000)
	want := make([]map[memsys.Addr]bool, nodes)
	touched := map[[2]int]bool{} // the (line group, node/16) tiles that hold a copy
	for n, c := range cs {
		want[n] = map[memsys.Addr]bool{memsys.Addr(n % 7): true, shared: true}
		if n%2 == 1 {
			want[n][memsys.Addr(100+n%5)] = true
		}
		for line := range want[n] {
			l, _, _, _ := c.Insert(line)
			l.Version = uint32(n)
			touched[[2]int{int(line) >> tab.lines, n / 16}] = true
		}
	}
	if tiles := countTiles(tab); tab.carved != len(touched) || tiles != len(touched) {
		t.Fatalf("the table carved %d tiles and holds %d, want one per touched tile: %d", tab.carved, tiles, len(touched))
	}
	for n, c := range cs {
		l, ok := c.Lookup(shared)
		if !ok || l.Version != uint32(n) {
			t.Fatalf("node %d's copy of line %d: ok=%v %+v, want version %d (copies alias)", n, shared, ok, l, n)
		}
		if c.Len() != len(want[n]) {
			t.Fatalf("node %d: Len = %d, want %d", n, c.Len(), len(want[n]))
		}
		prev, visits := memsys.Addr(0), 0
		c.ForEach(func(line memsys.Addr, l *Line) {
			if !want[n][line] || l.Version != uint32(n) {
				t.Fatalf("node %d: ForEach visits line %d (version %d), which it does not hold", n, line, l.Version)
			}
			if visits > 0 && line <= prev {
				t.Fatalf("node %d: ForEach visits line %d after %d", n, line, prev)
			}
			prev = line
			visits++
		})
		if visits != len(want[n]) {
			t.Fatalf("node %d: ForEach visits %d lines, want %d", n, visits, len(want[n]))
		}
	}
	for _, line := range []memsys.Addr{0, 1, 6, 7, 100, 104, shared, shared + 1, shared + 8, 1 << 20} {
		checkTiles(t, tab, cs, line)
	}
	last := cs[nodes-1]
	l, _ := last.Lookup(shared)
	l.State, l.ReadyAt, l.Updates = Modified, 77, 3
	last.Invalidate(shared)
	if _, ok := last.Lookup(shared); ok {
		t.Fatal("line present after invalidate")
	}
	if got := last.Len(); got != len(want[nodes-1])-1 {
		t.Fatalf("Len after invalidate = %d, want %d", got, len(want[nodes-1])-1)
	}
	if l, _, _, _ := last.Insert(shared); *l != (Line{State: Shared}) {
		t.Fatalf("re-insert after invalidate returns %+v, want a reset Shared line", *l)
	}
	if l, ok := cs[0].Lookup(shared); !ok || l.Version != 0 {
		t.Fatal("invalidating one node's copy disturbed another's")
	}
}

// countTiles counts the tiles the table's vector points at.
func countTiles(tab *Table) int {
	n := 0
	for _, p := range tab.tiles {
		if p != nil {
			n++
		}
	}
	return n
}

// checkTiles pins the tile geometry for one line. A tile is 128 slots in
// rows of w nodes, where w is 16, or the node count rounded up to a power
// of two below 16 nodes: node n's copy is slot (line·w + n%16) % 128 of
// tile ⌊line·w/128⌋·⌈nodes/16⌉ + n/16, so a line's copies at a tile's
// nodes lie side by side. Copies(line).At(n) is the Line node n's Lookup
// returns, an Invalid slot where node n holds no copy but its tile holds
// another, or nil where the tile holds no copy.
func checkTiles(t *testing.T, tab *Table, cs []Cache, line memsys.Addr) {
	t.Helper()
	nodes := len(cs)
	cols, w := (nodes+15)/16, 1
	for w < min(nodes, 16) {
		w *= 2
	}
	if tab.cols != uint64(cols) || 1<<tab.width != w || 1<<tab.lines != 128/w {
		t.Fatalf("%d nodes: %d columns of tiles with rows of %d nodes and %d lines a tile, want %d, %d and %d",
			nodes, tab.cols, 1<<tab.width, 1<<tab.lines, cols, w, 128/w)
	}
	cp := tab.Copies(line)
	for n, c := range cs {
		l, ok := c.Lookup(line)
		at := cp.At(n)
		var slot *Line
		if ti := int(line)*w/128*cols + n/16; ti < len(tab.tiles) && tab.tiles[ti] != nil {
			slot = &tab.tiles[ti][(int(line)*w+n%16)%128]
		}
		switch {
		case at != slot:
			t.Fatalf("line %d: Copies.At(%d) is not slot %d of the line's tile in column %d", line, n, (int(line)*w+n%16)%128, n/16)
		case ok && l != at:
			t.Fatalf("line %d: node %d's Lookup and Copies.At disagree", line, n)
		case !ok && at != nil && at.State != Invalid:
			t.Fatalf("line %d: Copies.At(%d) holds %+v, but node %d's Lookup misses", line, n, *at, n)
		}
		if n%16 > 0 && at != nil {
			if prev := cp.At(n - 1); uintptr(unsafe.Pointer(at))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(Line{}) {
				t.Fatalf("line %d: the copies of nodes %d and %d are not side by side", line, n-1, n)
			}
		}
	}
}

func TestInfinitesSharedTable(t *testing.T) {
	for _, nodes := range []int{1, 2, 3, 16, 48, 64, 100} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) { checkSharedTable(t, nodes) })
	}
}

// TestInfinitesWide runs the shared table above 512 nodes: at 513 nodes,
// whose last tile column holds one node, and at the many-core cap.
func TestInfinitesWide(t *testing.T) {
	for _, nodes := range []int{513, memsys.MaxProcs} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) { checkSharedTable(t, nodes) })
	}
}

// TestLineSize pins the copy table's slot at 16 bytes on 64-bit hosts, and
// with it a tile at 2 KiB and a finite cache's way at 40: the infinite
// caches of a many-core machine keep a 128-slot tile for every 8 lines × 16
// nodes that hold a copy.
func TestLineSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot sizes are pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Line{}); n != 16 {
		t.Fatalf("cache.Line is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(tile{}); n != 2048 {
		t.Fatalf("a tile is %d bytes, want 2048", n)
	}
	if n := unsafe.Sizeof(way{}); n != 40 {
		t.Fatalf("way is %d bytes, want 40", n)
	}
}
