package proto

import (
	"zsim/internal/directory"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/metrics"
)

// zmc is the paper's z-machine: the zero-overhead reference model whose only
// communication cost is the data flow inherent in the application (§2.2).
//
//   - The coherence unit is one word (4 bytes), so only true sharing
//     communicates.
//   - The producer is an oracle that ships a written datum to its consumers
//     immediately and never stalls: no write stall, no buffer flush.
//   - The datum becomes visible at consumers after the uncontended
//     propagation latency L, derived from the link bandwidth alone (there is
//     no contention in the z-machine). The per-block availability timestamp
//     implements the paper's §3 counter mechanism: a write "increments" the
//     counter and the counter "reaches zero" at AvailableAt; a read before
//     that time stalls — and that stall is, by construction, the
//     application's inherent communication cost.
//   - Synchronization provides control flow only; the availability counter
//     alone guarantees data flow (§3), i.e. the consistency model is the
//     weakest commensurate with the application's data access pattern.
//
// zline is the z-machine's per-line writer record, held in a paged flat
// table indexed by line number (dense, because the heap bump-allocates).
type zline struct {
	writer  int32 // node of the line's most recent writer
	writeAt Time  // its issue time (perfect-oracle mode only)
	written bool
}

type zmc struct {
	p   memsys.Params
	net *mesh.Net
	dir *directory.Directory // line size = ZLineSize
	wr  memsys.Paged[zline]
	// maxLat holds net.MaxUncontendedLatency(src, ZLineSize) per source
	// node: the availability counter needs it on every write fan-out and the
	// scan over destinations is O(nodes). The topology, bandwidth, and
	// message size are all fixed for a run, so the table is precomputed at
	// construction, so the trap path reads frozen configuration instead of
	// filling a lazily-populated memo.
	maxLat  []Time
	perfect bool
	ctr     *memsys.Counters
}

func newZMachine(p memsys.Params, net *mesh.Net) *zmc {
	z := &zmc{
		p:       p,
		net:     net,
		dir:     directory.New(p.Nodes(), p.ZLineSize),
		maxLat:  make([]Time, p.Nodes()),
		perfect: p.ZOracle == "perfect",
		ctr:     memsys.NewCounters(p.Procs),
	}
	for src := range z.maxLat {
		z.maxLat[src] = net.MaxUncontendedLatency(src, p.ZLineSize)
	}
	return z
}

func (z *zmc) Name() memsys.Kind          { return memsys.KindZMachine }
func (z *zmc) Counters() *memsys.Counters { return z.ctr.Fold() }

// PublishMetrics harvests the z-machine's word-grain directory occupancy
// (implements metrics.Publisher).
func (z *zmc) PublishMetrics(r *metrics.Registry) {
	r.Gauge("directory.entries").Set(int64(z.dir.Entries()))
	r.Counter("directory.allocs").Add(z.dir.Allocs())
}

// lines visits every z-machine word-line covered by [addr, addr+size).
func (z *zmc) lines(addr memsys.Addr, size int, f func(line memsys.Addr)) {
	first := memsys.Line(addr, z.p.ZLineSize)
	last := memsys.Line(addr+memsys.Addr(size-1), z.p.ZLineSize)
	for l := first; l <= last; l++ {
		f(l)
	}
}

func (z *zmc) Write(p int, addr memsys.Addr, size int, now Time) Time {
	z.ctr.CountWrite(p)
	n := z.p.Node(p)
	// The oracle ships the datum to the consumers; the producer proceeds
	// immediately. Propagation completes within the worst-case uncontended
	// latency from the producer.
	L := z.maxLat[n]
	z.lines(addr, size, func(line memsys.Addr) {
		e := z.dir.Entry(line * memsys.Addr(z.p.ZLineSize))
		w := z.wr.At(uint64(line))
		if z.perfect {
			// Carry forward the previous write's worst-case availability so
			// that counter semantics (a read waits for ALL outstanding
			// writes) still hold across back-to-back writers.
			if w.written {
				if carry := w.writeAt + z.maxLat[int(w.writer)]; carry > e.AvailableAt {
					e.AvailableAt = carry
				}
			}
			w.writeAt = now
		} else if avail := now + L; avail > e.AvailableAt {
			e.AvailableAt = avail
		}
		w.writer = int32(n)
		w.written = true
		z.ctr.Updates++
		z.ctr.NetworkCycles += uint64(L)
	})
	return 0
}

func (z *zmc) Read(p int, addr memsys.Addr, size int, now Time) Time {
	z.ctr.CountRead(p)
	n := z.p.Node(p)
	var stall Time
	z.lines(addr, size, func(line memsys.Addr) {
		e, ok := z.dir.Lookup(line * memsys.Addr(z.p.ZLineSize))
		if !ok {
			return
		}
		// The producer's node reads its own value locally.
		w := z.wr.Peek(uint64(line))
		wok := w != nil && w.written
		if wok && int(w.writer) == n {
			return
		}
		avail := e.AvailableAt
		if z.perfect && wok {
			// Perfect oracle: this consumer waits only for the datum's
			// flight time from the producer to itself.
			if t := w.writeAt + z.net.UncontendedLatency(int(w.writer), n, z.p.ZLineSize); t > avail {
				avail = t
			}
		}
		if avail > now {
			if s := avail - now; s > stall {
				stall = s
			}
		}
	})
	if stall > 0 {
		z.ctr.ReadMisses++ // an inherent-communication wait, not a cache event
	}
	return stall
}

// Release and Acquire cost nothing: synchronization in the z-machine is
// control flow only (§3) — no buffer flush, no write stall, ever.
func (z *zmc) Release(int, Time) Time { return 0 }
func (z *zmc) Acquire(int, Time) Time { return 0 }

// pram is the PRAM reference: unit-cost memory with no communication cost at
// all. The paper's §5 headline result is that the z-machine's performance
// matches the PRAM's on all four applications.
type pram struct {
	ctr *memsys.Counters
}

func newPRAM(p memsys.Params) *pram { return &pram{ctr: memsys.NewCounters(p.Procs)} }

func (m *pram) Name() memsys.Kind          { return memsys.KindPRAM }
func (m *pram) Counters() *memsys.Counters { return m.ctr.Fold() }

func (m *pram) Read(p int, _ memsys.Addr, _ int, _ Time) Time {
	m.ctr.CountRead(p)
	return 0
}

func (m *pram) Write(p int, _ memsys.Addr, _ int, _ Time) Time {
	m.ctr.CountWrite(p)
	return 0
}

func (m *pram) Release(int, Time) Time { return 0 }
func (m *pram) Acquire(int, Time) Time { return 0 }
