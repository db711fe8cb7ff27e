package wbuffer

import (
	"reflect"
	"testing"
	"testing/quick"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

func TestReserveFreeWhenEmpty(t *testing.T) {
	b := &NewStores(1, 4, new(Meter))[0]
	if s := b.Reserve(10); s != 0 {
		t.Fatalf("stall = %d on empty buffer, want 0", s)
	}
	b.Add(20)
	if b.Pending(10) != 1 {
		t.Fatal("entry not recorded")
	}
}

func TestReserveStallsWhenFull(t *testing.T) {
	b := &NewStores(1, 2, new(Meter))[0]
	b.Add(100)
	b.Add(50)
	stall := b.Reserve(10)
	if stall != 40 { // waits for the earliest (50) from now=10
		t.Fatalf("stall = %d, want 40", stall)
	}
	// The earliest entry retired; one slot free, the 100 entry remains.
	if got := b.Pending(50); got != 1 {
		t.Fatalf("pending = %d after stall, want 1", got)
	}
}

func TestEntriesRetireWithTime(t *testing.T) {
	b := &NewStores(1, 2, new(Meter))[0]
	b.Add(30)
	b.Add(40)
	if s := b.Reserve(35); s != 0 {
		t.Fatalf("stall = %d, want 0: entry at 30 already retired", s)
	}
}

func TestDrainStall(t *testing.T) {
	b := &NewStores(1, 4, new(Meter))[0]
	b.Add(100)
	b.Add(70)
	if s := b.DrainStall(60); s != 40 {
		t.Fatalf("drain stall = %d, want 40", s)
	}
	if b.Pending(0) != 0 {
		t.Fatal("buffer not empty after drain")
	}
	if s := b.DrainStall(60); s != 0 {
		t.Fatalf("drain of empty buffer = %d, want 0", s)
	}
}

func TestDrainStallPastCompletion(t *testing.T) {
	b := &NewStores(1, 4, new(Meter))[0]
	b.Add(10)
	if s := b.DrainStall(50); s != 0 {
		t.Fatalf("drain stall = %d, want 0 when all retired", s)
	}
}

func TestAddWithoutSlotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := &NewStores(1, 1, new(Meter))[0]
	b.Add(10)
	b.Add(20)
}

// Property: with capacity c, after any sequence of Reserve(now)+Add the
// number pending never exceeds c, and Reserve's stall is exactly the gap to
// the earliest completion when full.
func TestStoreOccupancyProperty(t *testing.T) {
	f := func(deltas []uint8) bool {
		b := &NewStores(1, 4, new(Meter))[0]
		var now memsys.Time
		for _, d := range deltas {
			now += memsys.Time(d % 16)
			stall := b.Reserve(now)
			now += stall
			b.Add(now + memsys.Time(d%32) + 1)
			if b.Pending(now) > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCombines(t *testing.T) {
	m := &NewMerges(1, 1, new(Meter))[0]
	if v, ev := m.Put(5); ev {
		t.Fatalf("first put evicted %d", v)
	}
	if !m.Contains(5) {
		t.Fatal("line not merging after Put")
	}
	if _, ev := m.Put(5); ev {
		t.Fatal("put of merging line must combine, not evict")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

func TestMergeEvictsOldestFIFO(t *testing.T) {
	m := &NewMerges(1, 2, new(Meter))[0]
	m.Put(1)
	m.Put(2)
	v, ev := m.Put(3)
	if !ev || v != 1 {
		t.Fatalf("evicted=%v victim=%d, want oldest line 1", ev, v)
	}
	if m.Contains(1) || !m.Contains(2) || !m.Contains(3) {
		t.Fatal("contents wrong after eviction")
	}
}

func TestMergeFlush(t *testing.T) {
	m := &NewMerges(1, 3, new(Meter))[0]
	m.Put(7)
	m.Put(8)
	lines := m.Flush()
	if len(lines) != 2 || lines[0] != 7 || lines[1] != 8 {
		t.Fatalf("flush = %v, want [7 8]", lines)
	}
	if m.Len() != 0 {
		t.Fatal("buffer not empty after flush")
	}
	if got := m.Flush(); len(got) != 0 {
		t.Fatal("second flush should be empty")
	}
}

// A merge buffer keeps its array across releases: once warm, cycles of
// merging, evicting and flushing Puts allocate nothing.
func TestMergeSteadyStateZeroAlloc(t *testing.T) {
	m := &NewMerges(1, 4, new(Meter))[0]
	cycle := func() {
		for l := memsys.Addr(0); l < 6; l++ {
			m.Put(l)
			m.Put(l) // combines
		}
		if got := m.Flush(); len(got) != 4 || got[0] != 2 {
			t.Fatalf("flush = %v, want [2 3 4 5]", got)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("steady-state Put/Flush cycles allocate %v times per run", n)
	}
}

// Property: the merge buffer never exceeds capacity and never holds
// duplicates.
func TestMergeInvariantProperty(t *testing.T) {
	f := func(lines []uint8) bool {
		m := &NewMerges(1, 3, new(Meter))[0]
		for _, l := range lines {
			m.Put(memsys.Addr(l % 8))
			if m.Len() > 3 {
				return false
			}
		}
		seen := map[memsys.Addr]bool{}
		for _, l := range m.Flush() {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	for _, f := range []func(){func() { NewStores(1, 0, new(Meter)) }, func() { NewMerges(1, 0, new(Meter)) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestWatermark(t *testing.T) {
	b := &NewStores(1, 4, new(Meter))[0]
	if wm := b.Watermark(50); wm != 50 {
		t.Fatalf("empty watermark = %d, want now", wm)
	}
	b.Add(70)
	b.Add(120)
	if wm := b.Watermark(50); wm != 120 {
		t.Fatalf("watermark = %d, want 120", wm)
	}
	// Watermark must not drain.
	if b.Pending(50) != 2 {
		t.Fatal("watermark drained the buffer")
	}
	// Past the last completion it degenerates to now.
	if wm := b.Watermark(200); wm != 200 {
		t.Fatalf("late watermark = %d, want 200", wm)
	}
}

// TestMeterPublishes drives a store buffer of 2 entries, one of 1<<50
// entries and a one-line merge buffer, all counting into one Meter,
// through every counted event, then checks each published count against
// hand-computed values. 1<<50 entries is a valid Params.StoreBufEntries
// (Validate sets only a floor), so a count sized by the capacity would
// fail here; that buffer never fills, and its 20 writes in flight reach
// occupancy 19, past the last bucket bound of 16.
func TestMeterPublishes(t *testing.T) {
	defer metrics.Enable(metrics.Enable(true))
	m := new(Meter)
	huge := &NewStores(1, 1<<50, m)[0]
	small := &NewStores(1, 2, m)[0]
	merge := &NewMerges(1, 1, m)[0]

	// Occupancies 0 and 1, then a full buffer at 2 that waits from 10 to
	// the entry completing at 50: 40 full-stall cycles.
	small.Reserve(0)
	small.Add(100)
	small.Reserve(0)
	small.Add(50)
	if stall := small.Reserve(10); stall != 40 {
		t.Fatalf("full buffer stalled %d cycles, want 40", stall)
	}
	small.Add(200)
	// A drain at 120 waits for the entry at 200: one flush of 80 cycles.
	// Draining the empty buffer again is no flush.
	small.DrainStall(120)
	small.DrainStall(120)
	// Occupancies 0 through 19, then a drain at the last completion: a
	// flush that stalls no cycle.
	for i := 0; i < 20; i++ {
		if stall := huge.Reserve(0); stall != 0 {
			t.Fatalf("write %d stalled %d cycles in a buffer of 1<<50 entries", i, stall)
		}
		huge.Add(1000)
	}
	huge.DrainStall(1000)
	// Two merges into the merging line and two evictions of it.
	for _, l := range []memsys.Addr{1, 1, 2, 2, 3} {
		merge.Put(l)
	}

	r := metrics.NewRegistry()
	m.PublishMetrics(r)
	s := r.Snapshot()
	want := map[string]uint64{
		"wbuffer.full_stall_cycles":  40,
		"wbuffer.flush_stall_cycles": 80,
		"wbuffer.flushes":            2,
		"wbuffer.merges":             2,
		"wbuffer.merge_evictions":    2,
	}
	if !reflect.DeepEqual(s.Counters, want) {
		t.Errorf("counters = %v, want %v", s.Counters, want)
	}
	wantOcc := metrics.HistogramSnapshot{
		Bounds: OccupancyBuckets,
		// 0, 1 and 2 twice (both buffers), 3 through 19 once (the large one).
		Counts: []uint64{2, 2, 2, 2, 4, 8, 3},
		Count:  23,
		Sum:    0 + 1 + 2 + 19*20/2,
		Max:    19,
	}
	if got := s.Histograms["wbuffer.occupancy"]; !reflect.DeepEqual(got, wantOcc) {
		t.Errorf("wbuffer.occupancy = %+v, want %+v", got, wantOcc)
	}
	// A machine without merge buffers publishes no merge counts.
	r = metrics.NewRegistry()
	new(Meter).PublishMetrics(r)
	if got := r.Snapshot().Counters; len(got) != 3 {
		t.Errorf("a meter no merge buffer counts into publishes %v", got)
	}
}
