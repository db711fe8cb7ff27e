package memsys

import "testing"

func TestPagedBasics(t *testing.T) {
	var p Paged[uint64]
	if p.Pages() != 0 {
		t.Fatalf("fresh table has %d pages", p.Pages())
	}
	if p.Peek(0) != nil || p.Peek(1<<30) != nil {
		t.Fatal("Peek must return nil for untouched indices")
	}
	if p.Load(42) != 0 {
		t.Fatal("Load of an untouched index must be the zero value")
	}

	*p.At(5) = 55
	*p.At(pageLen + 7) = 77
	if got := p.Load(5); got != 55 {
		t.Fatalf("Load(5) = %d", got)
	}
	if got := *p.Peek(pageLen + 7); got != 77 {
		t.Fatalf("Peek(pageLen+7) = %d", got)
	}
	// Untouched index on a touched page reads as zero via Peek.
	if got := *p.Peek(6); got != 0 {
		t.Fatalf("Peek(6) = %d, want 0", got)
	}
	if p.Pages() != 2 {
		t.Fatalf("Pages = %d, want 2", p.Pages())
	}
}

func TestPagedSparsePages(t *testing.T) {
	var p Paged[int]
	// Touch a far page; the gap pages must stay unallocated.
	*p.At(10 * pageLen) = 1
	if p.Pages() != 1 {
		t.Fatalf("Pages = %d, want 1", p.Pages())
	}
	if p.Peek(pageLen) != nil {
		t.Fatal("gap page must be untouched")
	}
}

func TestPagedPointerStability(t *testing.T) {
	var p Paged[int]
	first := p.At(0)
	// Allocating many later pages must not move the first element: protocol
	// code holds entry pointers across a transaction.
	for i := uint64(1); i <= 64; i++ {
		*p.At(i * pageLen) = int(i)
	}
	*first = 99
	if got := p.Load(0); got != 99 {
		t.Fatalf("element moved: Load(0) = %d", got)
	}
	if p.At(0) != first {
		t.Fatal("At(0) must return a stable pointer")
	}
}

func TestPagedForEach(t *testing.T) {
	var p Paged[uint64]
	*p.At(3) = 3
	*p.At(2*pageLen + 1) = 21
	var idx []uint64
	sum := uint64(0)
	p.ForEach(func(i uint64, v *uint64) {
		if *v != 0 {
			idx = append(idx, i)
			sum += *v
		}
	})
	if len(idx) != 2 || idx[0] != 3 || idx[1] != 2*pageLen+1 || sum != 24 {
		t.Fatalf("ForEach visited %v (sum %d)", idx, sum)
	}
}

// TestPagedPageBoundaries writes the first and last element of pages 0–2
// and reads each back through At, Peek, Load and ForEach: every write lands
// on its own page and leaves its neighbours zero.
func TestPagedPageBoundaries(t *testing.T) {
	if pageLen != 512 {
		t.Fatalf("pageLen = %d, want 512", pageLen)
	}
	var p Paged[uint64]
	edges := []uint64{0, pageLen - 1, pageLen, 2*pageLen - 1, 2 * pageLen, 3*pageLen - 1}
	for _, i := range edges {
		*p.At(i) = i + 1
	}
	if p.Pages() != 3 {
		t.Fatalf("Pages = %d, want 3", p.Pages())
	}
	for _, i := range edges {
		if got := p.Load(i); got != i+1 {
			t.Errorf("Load(%d) = %d, want %d", i, got, i+1)
		}
		if got := *p.Peek(i); got != i+1 {
			t.Errorf("Peek(%d) = %d, want %d", i, got, i+1)
		}
		if got := *p.At(i); got != i+1 {
			t.Errorf("At(%d) = %d, want %d", i, got, i+1)
		}
	}
	for _, i := range []uint64{1, pageLen - 2, pageLen + 1, 2*pageLen + 1} {
		if got := p.Load(i); got != 0 {
			t.Errorf("neighbour Load(%d) = %d, want 0", i, got)
		}
	}
	if p.Peek(3*pageLen) != nil || p.Load(3*pageLen) != 0 {
		t.Error("page 3 must stay untouched")
	}
	var visited uint64
	var nonzero []uint64
	p.ForEach(func(i uint64, v *uint64) {
		if i != visited {
			t.Fatalf("ForEach visited %d, want %d (ascending, no gaps)", i, visited)
		}
		visited++
		if *v != 0 {
			nonzero = append(nonzero, i)
		}
	})
	if visited != 3*pageLen {
		t.Errorf("ForEach visited %d elements, want %d", visited, 3*pageLen)
	}
	if len(nonzero) != len(edges) {
		t.Fatalf("ForEach saw nonzero %v, want %v", nonzero, edges)
	}
	for k := range edges {
		if nonzero[k] != edges[k] {
			t.Fatalf("ForEach saw nonzero %v, want %v", nonzero, edges)
		}
	}
}

// TestPagedGrowKeepsPages: growing the page vector for a far touch, then
// again past its capacity, keeps every earlier page and leaves the gap
// between them untouched.
func TestPagedGrowKeepsPages(t *testing.T) {
	var p Paged[int]
	*p.At(5) = 5
	*p.At(1000*pageLen + 3) = 1000
	*p.At(7 * pageLen) = 7
	*p.At(5000 * pageLen) = 5000
	for _, c := range []struct {
		i    uint64
		want int
	}{{5, 5}, {1000*pageLen + 3, 1000}, {7 * pageLen, 7}, {5000 * pageLen, 5000}} {
		if got := p.Load(c.i); got != c.want {
			t.Errorf("Load(%d) = %d, want %d", c.i, got, c.want)
		}
	}
	if p.Pages() != 4 {
		t.Errorf("Pages = %d, want 4", p.Pages())
	}
	if p.Peek(999*pageLen) != nil || p.Peek(4999*pageLen) != nil {
		t.Error("gap pages must stay untouched")
	}
}

func TestPagedSteadyStateZeroAlloc(t *testing.T) {
	var p Paged[uint64]
	*p.At(1) = 1
	*p.At(pageLen) = 2
	if n := testing.AllocsPerRun(100, func() {
		*p.At(1) = 7
		_ = p.Load(pageLen)
		_ = p.Peek(2)
	}); n != 0 {
		t.Fatalf("steady-state access allocates %v times per run", n)
	}
}

func TestWordIndex(t *testing.T) {
	if WordIndex(0) != 0 || WordIndex(8) != 1 || WordIndex(80) != 10 {
		t.Fatal("WordIndex must be addr/8")
	}
}
