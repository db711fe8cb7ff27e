// Package wbuffer models the per-processor write machinery of the paper's
// base hardware: a finite store buffer that lets a release-consistent
// processor continue past write misses, and the merge buffer used by the
// update-based systems to combine writes to the same cache line before they
// are sent out (paper §4, after Dahlgren & Stenström).
//
// The store buffer is the source of the paper's two pure-overhead
// components: a full buffer on a write miss stalls the processor (write
// stall), and a non-empty buffer at a release point stalls it until all
// entries retire (buffer flush).
package wbuffer

import (
	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

// OccupancyBuckets are the inclusive upper bounds of the
// wbuffer.occupancy histogram (in-flight entries seen at each Reserve).
var OccupancyBuckets = []uint64{0, 1, 2, 4, 8, 16} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// Meter counts what a machine's store and merge buffers do, for the
// wbuffer.* metrics. A machine's buffers share one, as they share one
// goroutine at a time, so its counts are plain fields, published by
// PublishMetrics when the run ends.
type Meter struct {
	// occupancy[k] counts the Reserves that found k entries in flight. It
	// grows to the highest occupancy seen, not to the capacity, which
	// Params.Validate leaves unbounded.
	occupancy  []uint64
	fullStall  uint64 // cycles stalled on a full buffer
	flushStall uint64 // cycles stalled draining at releases
	flushes    uint64 // DrainStall calls with entries pending
	merging    bool   // merge buffers count here too
	merges     uint64 // writes combined into a merging line
	evictions  uint64 // lines displaced by a full merge buffer
}

// reserved counts a Reserve that found k entries in flight.
func (m *Meter) reserved(k int) {
	if k >= len(m.occupancy) {
		m.occupancy = append(m.occupancy, make([]uint64, k+1-len(m.occupancy))...)
	}
	m.occupancy[k]++
}

// PublishMetrics publishes the counts into r (implements
// metrics.Publisher): the store buffers' always, the merge buffers' when
// any count here.
func (m *Meter) PublishMetrics(r *metrics.Registry) {
	h := r.Histogram("wbuffer.occupancy", OccupancyBuckets)
	for k, n := range m.occupancy {
		h.ObserveN(uint64(k), n)
	}
	r.Counter("wbuffer.full_stall_cycles").Add(m.fullStall)
	r.Counter("wbuffer.flush_stall_cycles").Add(m.flushStall)
	r.Counter("wbuffer.flushes").Add(m.flushes)
	if m.merging {
		r.Counter("wbuffer.merges").Add(m.merges)
		r.Counter("wbuffer.merge_evictions").Add(m.evictions)
	}
}

// StoreBuffer tracks the completion times of in-flight writes. An entry
// retires when the protocol-level transaction it represents (ownership
// acquisition, update fan-out) completes.
type StoreBuffer struct {
	cap     int
	pending []memsys.Time // completion times, unordered
	meter   *Meter
}

// NewStores returns n store buffers with the given number of entries each,
// one per node of a machine, in one allocation. They count into m.
func NewStores(n, entries int, m *Meter) []StoreBuffer {
	if entries <= 0 {
		panic("wbuffer: store buffer needs at least one entry")
	}
	b := make([]StoreBuffer, n)
	for i := range b {
		b[i].cap, b[i].meter = entries, m
	}
	return b
}

// Cap returns the buffer's capacity.
func (b *StoreBuffer) Cap() int { return b.cap }

// retire drops entries completed by now.
func (b *StoreBuffer) retire(now memsys.Time) {
	out := b.pending[:0]
	for _, c := range b.pending {
		if c > now {
			out = append(out, c)
		}
	}
	b.pending = out
}

// Pending returns the number of in-flight entries at time now.
func (b *StoreBuffer) Pending(now memsys.Time) int {
	b.retire(now)
	return len(b.pending)
}

// Reserve obtains a free entry at time now, returning the write-stall cycles
// spent waiting for the earliest in-flight entry to retire when the buffer
// is full. After Reserve returns, the caller owns one free slot and should
// Add the new entry's completion time.
func (b *StoreBuffer) Reserve(now memsys.Time) (stall memsys.Time) {
	b.retire(now)
	b.meter.reserved(len(b.pending))
	if len(b.pending) < b.cap {
		return 0
	}
	// Wait for the earliest completion.
	min := b.pending[0]
	for _, c := range b.pending[1:] {
		if c < min {
			min = c
		}
	}
	stall = min - now
	b.retire(min)
	b.meter.fullStall += uint64(stall)
	return stall
}

// Add records an in-flight entry completing at the given time. The caller
// must have Reserved a slot.
func (b *StoreBuffer) Add(completion memsys.Time) {
	if len(b.pending) >= b.cap {
		panic("wbuffer: Add without a free slot; call Reserve first")
	}
	b.pending = append(b.pending, completion)
}

// Watermark returns the time by which every in-flight entry has retired
// (now if the buffer is empty) without draining the buffer — the
// write-completion watermark a lazy-release system hands to consumers.
func (b *StoreBuffer) Watermark(now memsys.Time) memsys.Time {
	wm := now
	for _, c := range b.pending {
		if c > wm {
			wm = c
		}
	}
	return wm
}

// DrainStall returns the buffer-flush stall at a release point: the cycles
// until every in-flight entry has retired. The buffer is empty afterwards.
func (b *StoreBuffer) DrainStall(now memsys.Time) (stall memsys.Time) {
	var max memsys.Time
	for _, c := range b.pending {
		if c > max {
			max = c
		}
	}
	if len(b.pending) > 0 {
		b.meter.flushes++
	}
	b.pending = b.pending[:0]
	if max > now {
		b.meter.flushStall += uint64(max - now)
		return max - now
	}
	return 0
}

// MergeBuffer combines writes to the same cache line. It holds up to cap
// lines in FIFO order; inserting a new line into a full buffer evicts the
// oldest, which the protocol must then send out as an update.
type MergeBuffer struct {
	cap   int
	lines []memsys.Addr // FIFO, oldest first
	meter *Meter
}

// NewMerges returns n merge buffers holding cap cache lines each (the
// paper uses 1), one per node of a machine, in one allocation. They count
// into m.
func NewMerges(n, cap int, m *Meter) []MergeBuffer {
	if cap <= 0 {
		panic("wbuffer: merge buffer needs at least one line")
	}
	m.merging = true
	b := make([]MergeBuffer, n)
	for i := range b {
		b[i].cap, b[i].meter = cap, m
	}
	return b
}

// Cap returns the merge buffer capacity in lines.
func (m *MergeBuffer) Cap() int { return m.cap }

// Len returns the number of merging lines.
func (m *MergeBuffer) Len() int { return len(m.lines) }

// Contains reports whether the line is currently merging — a write to it
// combines for free.
func (m *MergeBuffer) Contains(line memsys.Addr) bool {
	for _, l := range m.lines {
		if l == line {
			return true
		}
	}
	return false
}

// Put inserts a line. If the line is already merging nothing changes. If
// the buffer is full the oldest line is evicted and returned so the caller
// can emit its update message.
func (m *MergeBuffer) Put(line memsys.Addr) (victim memsys.Addr, evicted bool) {
	if m.Contains(line) {
		m.meter.merges++
		return 0, false
	}
	if len(m.lines) == m.cap {
		victim = m.lines[0]
		copy(m.lines, m.lines[1:])
		m.lines[len(m.lines)-1] = line
		m.meter.evictions++
		return victim, true
	}
	m.lines = append(m.lines, line)
	return 0, false
}

// Flush removes and returns all merging lines in FIFO order (done at
// synchronization points to guarantee protocol correctness; the resulting
// update traffic is the merge buffer's contribution to buffer-flush time).
// The result shares the buffer's array, which the next Put reuses, so it
// is valid until then.
func (m *MergeBuffer) Flush() []memsys.Addr {
	out := m.lines
	m.lines = m.lines[:0]
	return out
}
