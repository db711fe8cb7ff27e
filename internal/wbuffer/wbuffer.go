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

// StoreBuffer tracks the completion times of in-flight writes. An entry
// retires when the protocol-level transaction it represents (ownership
// acquisition, update fan-out) completes.
type StoreBuffer struct {
	cap     int
	pending []memsys.Time // completion times, unordered

	// Per-event metric handles (nil unless Instrument was called). Shared
	// across a machine's buffers: they are atomic, and per-node attribution
	// is not needed for the regression gate.
	mOccupancy  *metrics.Histogram // entries in flight at each Reserve
	mFullStall  *metrics.Counter   // cycles stalled on a full buffer
	mFlushStall *metrics.Counter   // cycles stalled draining at releases
	mFlushes    *metrics.Counter   // DrainStall calls with entries pending
}

// Instrument attaches per-event metric handles, all nil-safe; the protocol
// that owns the buffer wires every node's buffer to the same handles.
func (b *StoreBuffer) Instrument(occupancy *metrics.Histogram, fullStall, flushStall, flushes *metrics.Counter) {
	b.mOccupancy = occupancy
	b.mFullStall = fullStall
	b.mFlushStall = flushStall
	b.mFlushes = flushes
}

// NewStore returns a store buffer with the given number of entries.
func NewStore(entries int) *StoreBuffer {
	if entries <= 0 {
		panic("wbuffer: store buffer needs at least one entry")
	}
	return &StoreBuffer{cap: entries}
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
	b.mOccupancy.Observe(uint64(len(b.pending)))
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
	b.mFullStall.Add(uint64(stall))
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
		b.mFlushes.Inc()
	}
	b.pending = b.pending[:0]
	if max > now {
		b.mFlushStall.Add(uint64(max - now))
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

	mMerges    *metrics.Counter // writes combined into a merging line
	mEvictions *metrics.Counter // lines displaced by a full buffer
}

// Instrument attaches per-event metric handles (nil-safe).
func (m *MergeBuffer) Instrument(merges, evictions *metrics.Counter) {
	m.mMerges = merges
	m.mEvictions = evictions
}

// NewMerge returns a merge buffer holding cap cache lines (the paper uses 1).
func NewMerge(cap int) *MergeBuffer {
	if cap <= 0 {
		panic("wbuffer: merge buffer needs at least one line")
	}
	return &MergeBuffer{cap: cap}
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
		m.mMerges.Inc()
		return 0, false
	}
	if len(m.lines) == m.cap {
		victim = m.lines[0]
		copy(m.lines, m.lines[1:])
		m.lines[len(m.lines)-1] = line
		m.mEvictions.Inc()
		return victim, true
	}
	m.lines = append(m.lines, line)
	return 0, false
}

// Flush removes and returns all merging lines in FIFO order (done at
// synchronization points to guarantee protocol correctness; the resulting
// update traffic is the merge buffer's contribution to buffer-flush time).
func (m *MergeBuffer) Flush() []memsys.Addr {
	out := m.lines
	m.lines = nil
	return out
}
