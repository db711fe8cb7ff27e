package directory

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"zsim/internal/memsys"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b.Count() != 0 {
		t.Fatal("new bitset not empty")
	}
	b.Add(3)
	b.Add(7)
	b.Add(3) // idempotent
	if !b.Has(3) || !b.Has(7) || b.Has(0) {
		t.Fatalf("membership wrong: %v", b.List())
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
	b.Remove(3)
	if b.Has(3) || b.Count() != 1 {
		t.Fatalf("remove failed: %v", b.List())
	}
	b.Clear()
	if b.Count() != 0 {
		t.Fatal("clear failed")
	}
}

func TestBitsetListAscending(t *testing.T) {
	var b Bitset
	for _, p := range []int{9, 2, 63, 0, 15} {
		b.Add(p)
	}
	want := []int{0, 2, 9, 15, 63}
	got := b.List()
	if len(got) != len(want) {
		t.Fatalf("List = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("List = %v, want %v", got, want)
		}
	}
}

// Property: add/remove algebra — membership reflects the last operation.
func TestBitsetProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var b Bitset
		ref := map[int]bool{}
		for _, op := range ops {
			p := int(op % 64)
			if op&0x80 != 0 {
				b.Add(p)
				ref[p] = true
			} else {
				b.Remove(p)
				delete(ref, p)
			}
		}
		if b.Count() != len(ref) {
			return false
		}
		for p := range ref {
			if !b.Has(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetWide exercises processor ids beyond the first word: word
// boundaries (63/64/65, 127/128/129) and the very last id the presence set
// can hold (memsys.MaxProcs-1).
func TestBitsetWide(t *testing.T) {
	ids := []int{0, 1, 63, 64, 65, 127, 128, 129, 511, 512, 1022, 1023}
	var b Bitset
	for _, p := range ids {
		b.Add(p)
	}
	if b.Count() != len(ids) {
		t.Fatalf("Count = %d, want %d", b.Count(), len(ids))
	}
	for _, p := range ids {
		if !b.Has(p) {
			t.Fatalf("missing member %d", p)
		}
	}
	// Neighbours across word boundaries must not alias.
	for _, p := range []int{2, 62, 66, 126, 130, 510, 513, 1021} {
		if b.Has(p) {
			t.Fatalf("phantom member %d", p)
		}
	}
	got := b.List()
	for i, p := range ids {
		if got[i] != p {
			t.Fatalf("List = %v, want %v", got, ids)
		}
	}
	// Removing a member in one word leaves the others untouched.
	b.Remove(64)
	if b.Has(64) || !b.Has(63) || !b.Has(65) || b.Count() != len(ids)-1 {
		t.Fatalf("word-boundary remove corrupted neighbours: %v", b.List())
	}
	b.Clear()
	if b.Count() != 0 || b.Has(1023) {
		t.Fatal("Clear left wide members behind")
	}
}

// TestBitsetWidthConstant pins the presence set's capacity to the
// processor cap: BitsetWords*64 ids must cover exactly memsys.MaxProcs.
func TestBitsetWidthConstant(t *testing.T) {
	if BitsetWords*64 != memsys.MaxProcs {
		t.Fatalf("BitsetWords = %d does not cover MaxProcs = %d", BitsetWords, memsys.MaxProcs)
	}
	var b Bitset
	b.Add(memsys.MaxProcs - 1)
	if !b.Has(memsys.MaxProcs-1) || b.Count() != 1 {
		t.Fatal("last representable processor id not stored")
	}
}

// TestBitsetRemoveListedMembers pins what the coherence fan-outs rely on:
// they list a line's sharers once and may remove any of them from the set
// while they walk the list (RCcomp's self-invalidation does), which must
// not disturb the walk.
func TestBitsetRemoveListedMembers(t *testing.T) {
	var b Bitset
	ids := []int{3, 40, 63, 64, 100, 500, 1023}
	for _, p := range ids {
		b.Add(p)
	}
	var got []int
	for _, p := range b.AppendTo(nil) {
		got = append(got, p)
		b.Remove(p)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("visited %v, want %v", got, ids)
	}
	if b.Count() != 0 {
		t.Fatalf("members survived self-removal: %v", b.List())
	}
}

func TestEntryCreatedOnDemand(t *testing.T) {
	d := New(16, 32)
	if d.Entries() != 0 {
		t.Fatal("new directory not empty")
	}
	e := d.Entry(0x100)
	if e.State != Uncached || e.Sharers.Count() != 0 {
		t.Fatalf("fresh entry should be Uncached/empty: %v", e)
	}
	if d.Entries() != 1 {
		t.Fatalf("Entries = %d, want 1", d.Entries())
	}
	// Same line, same entry.
	e2 := d.Entry(0x100 + 31)
	if e != e2 {
		t.Fatal("addresses within a line must share an entry")
	}
	// Different line, different entry.
	if d.Entry(0x100+32) == e {
		t.Fatal("different lines must not share entries")
	}
}

func TestLookupDoesNotAllocate(t *testing.T) {
	d := New(16, 32)
	if _, ok := d.Lookup(0x40); ok {
		t.Fatal("lookup of untouched line should miss")
	}
	if d.Entries() != 0 {
		t.Fatal("Lookup must not allocate")
	}
	d.Entry(0x40)
	if _, ok := d.Lookup(0x40); !ok {
		t.Fatal("lookup after Entry should hit")
	}
}

func TestHomeMatchesParams(t *testing.T) {
	d := New(16, 32)
	p := memsys.Default(16)
	for a := memsys.Addr(0); a < 4096; a += 17 {
		if d.Home(a) != p.Home(a, 32) {
			t.Fatalf("Home(%#x) mismatch", a)
		}
	}
}

func TestEntryStatePersists(t *testing.T) {
	d := New(4, 32)
	e := d.Entry(64)
	e.State = Dirty
	e.Owner = 2
	e.Sharers.Add(2)
	e2 := d.Entry(64)
	if e2.State != Dirty || e2.Owner != 2 || !e2.Sharers.Has(2) {
		t.Fatalf("entry state lost: %v", e2)
	}
}

func TestStateStrings(t *testing.T) {
	for s, want := range map[State]string{Uncached: "U", SharedClean: "S", Dirty: "D", Special: "X", State(42): "?"} {
		if s.String() != want {
			t.Errorf("%d.String() = %s, want %s", s, s.String(), want)
		}
	}
}

// TestBitsetAppendToOrder: AppendTo keeps what dst held and appends the
// members after it in ascending order, across the inline and high words.
func TestBitsetAppendToOrder(t *testing.T) {
	var b Bitset
	for _, p := range []int{700, 5, 64, 1, 10} {
		b.Add(p)
	}
	got := b.AppendTo([]int{-1})
	if want := []int{-1, 1, 5, 10, 64, 700}; !slices.Equal(got, want) {
		t.Fatalf("AppendTo = %v, want %v", got, want)
	}
}

func TestEntryStringAndLineSize(t *testing.T) {
	d := New(4, 32)
	if d.LineSize() != 32 {
		t.Fatalf("LineSize = %d", d.LineSize())
	}
	e := d.Entry(64)
	e.State = Dirty
	e.Owner = 2
	e.Sharers.Add(2)
	if s := e.String(); s == "" {
		t.Fatal("entry String empty")
	}
}

func TestForEachVisitsAllEntries(t *testing.T) {
	d := New(4, 32)
	for i := 0; i < 10; i++ {
		d.Entry(memsys.Addr(i * 32))
	}
	n := 0
	d.ForEach(func(line memsys.Addr, e *Entry) {
		n++
		if e == nil {
			t.Fatal("nil entry")
		}
	})
	if n != 10 {
		t.Fatalf("visited %d entries, want 10", n)
	}
}

// TestForEachAscendingLines: the directory is one table indexed by line
// number, so ForEach visits exactly the touched lines, in ascending order,
// whatever order they were touched in and whichever homes they belong to.
func TestForEachAscendingLines(t *testing.T) {
	d := New(4, 32)
	lines := []memsys.Addr{1030, 7, 3, 512, 4, 511, 2049, 0}
	for _, l := range lines {
		d.Entry(l * 32)
	}
	d.Lookup(5000 * 32) // a lookup touches nothing
	want := []memsys.Addr{0, 3, 4, 7, 511, 512, 1030, 2049}
	var got []memsys.Addr
	d.ForEach(func(line memsys.Addr, e *Entry) {
		if e.State != Uncached {
			t.Fatalf("line %d: fresh entry in state %v", line, e.State)
		}
		got = append(got, line)
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

// TestEntrySize pins the directory slot at 32 bytes on 64-bit hosts: the
// entry itself, fields widest first, with no valid bit beside it.
func TestEntrySize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("slot sizes are pinned for 64-bit hosts")
	}
	if n := unsafe.Sizeof(Entry{}); n != 32 {
		t.Fatalf("directory.Entry is %d bytes, want 32", n)
	}
}
