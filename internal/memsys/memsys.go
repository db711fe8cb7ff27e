// Package memsys defines the types shared by every simulated memory system:
// the simulated address space, the architectural parameter block, the
// MemSystem interface that protocols implement, and the event counters used
// by the evaluation harness.
package memsys

import (
	"fmt"

	"zsim/internal/sim"
)

// Addr is a simulated shared-memory byte address.
type Addr uint64

// Time re-exports the kernel's virtual time for convenience.
type Time = sim.Time

// WordSize is the granularity of shared values: every simulated element is
// an 8-byte word (internal/shm re-exports it for the typed array views).
const WordSize = 8

// WordIndex returns addr's dense word-table index (addr / WordSize). The
// shared heap is a bump allocator, so word indices are dense from zero —
// the property the Paged word tables exploit.
func WordIndex(addr Addr) uint64 { return uint64(addr / WordSize) }

// Line returns the cache-line index of addr for the given line size.
func Line(addr Addr, lineSize int) Addr { return addr / Addr(lineSize) }

// MaxProcs is the largest supported processor count. The directory's
// presence sets (directory.Bitset) are fixed arrays of MaxProcs/64 64-bit
// words, and the stock topologies are validated up to this node count
// (a 32×32 mesh at one hardware thread per node). Dir-i limited-pointer
// directories (Params.DirPointers) are the documented scalable alternative
// when full-map presence sets get too wide to be realistic hardware.
const MaxProcs = 1024

// HierClusterNodes is the cluster size of the hierarchical ("hier")
// topology: every cluster is the paper's 4×4 mesh, and clusters are tiled
// in a higher-level mesh routed through each cluster's gateway node.
const HierClusterNodes = 16

// Kind identifies a memory system implementation.
type Kind string

const (
	KindZMachine Kind = "zmc"     // the paper's zero-overhead reference machine
	KindPRAM     Kind = "pram"    // unit-cost memory (PRAM comparison, §5)
	KindSCInv    Kind = "scinv"   // sequentially consistent write-invalidate baseline
	KindRCInv    Kind = "rcinv"   // RC + Berkeley-style write-invalidate
	KindRCUpd    Kind = "rcupd"   // RC + Firefly-style write-update + merge buffer
	KindRCComp   Kind = "rccomp"  // RC + competitive update (threshold self-invalidation)
	KindRCAdapt  Kind = "rcadapt" // RC + adaptive selective-write protocol

	// KindRCSync is this reproduction's implementation of the paper's §6
	// proposal: use synchronization only for control flow and a separate
	// mechanism for data flow. Releases never stall draining buffers;
	// instead the release carries a write-completion watermark through the
	// synchronization object, delaying only the *consumer's* grant until
	// the producer's writes are globally performed.
	KindRCSync Kind = "rcsync"
)

// Kinds lists every memory system, in the order the paper's figures use
// (z-machine first, then the four RC systems), followed by the extra
// baselines this reproduction adds.
func Kinds() []Kind {
	return []Kind{KindZMachine, KindRCInv, KindRCUpd, KindRCAdapt, KindRCComp, KindRCSync, KindSCInv, KindPRAM}
}

// FigureKinds lists the five systems that appear in Figures 2–5.
func FigureKinds() []Kind {
	return []Kind{KindZMachine, KindRCInv, KindRCUpd, KindRCAdapt, KindRCComp}
}

// MemSystem is a simulated shared-memory system. Methods are invoked by the
// machine layer with the issuing processor already holding the global-time
// token (see internal/sim), so implementations may mutate state freely.
//
// Each method returns the stall imposed on the issuing processor, classified
// per the paper's overhead taxonomy: Read returns read-stall cycles, Write
// returns write-stall cycles, and Release returns buffer-flush cycles.
type MemSystem interface {
	Name() Kind

	// Read models a shared read of `size` bytes at addr issued at `now`.
	Read(p int, addr Addr, size int, now Time) (stall Time)

	// Write models a shared write of `size` bytes at addr issued at `now`.
	Write(p int, addr Addr, size int, now Time) (stall Time)

	// Release is invoked at release-type synchronization points (unlock,
	// barrier arrival). Under release consistency the memory system must
	// guarantee all prior writes are globally performed, which may stall
	// the processor draining write buffers ("buffer flush" in the paper).
	Release(p int, now Time) (stall Time)

	// Acquire is invoked at acquire-type synchronization points (lock
	// grant, barrier exit).
	Acquire(p int, now Time) (stall Time)

	// Counters exposes the system's event counters.
	Counters() *Counters
}

// TokenSystem is implemented by memory systems that decouple data flow
// from synchronization (the paper's §6 architectural implication): a
// release does not stall the producer; the synchronization primitive
// instead delays the consumer's grant to the producer's write-completion
// watermark.
type TokenSystem interface {
	// ReleaseWatermark returns the virtual time by which every write
	// issued by p before now is globally performed.
	ReleaseWatermark(p int, now Time) Time
}

// Counters aggregates protocol events for the whole run plus per-processor
// access counts (Table 1 reports the number of writes per application).
type Counters struct {
	Reads       uint64 // shared reads issued
	Writes      uint64 // shared writes issued
	ReadMisses  uint64 // reads that left the processor's cache
	WriteMisses uint64 // writes that left the processor's cache/merge buffer
	ColdMisses  uint64 // read misses to lines never cached by that processor

	Messages uint64 // network messages of any kind
	DataMsgs uint64 // messages carrying data (replies, updates, writebacks)
	Bytes    uint64 // total bytes injected into the network

	Invalidations     uint64 // invalidation messages sent to sharers
	Updates           uint64 // update messages sent to sharers
	UselessUpdates    uint64 // updates delivered to a sharer that never re-read the line
	SelfInvalidations uint64 // competitive/adaptive protocol self- or re-init invalidations
	Prefetches        uint64 // prefetch requests issued (extension E11)
	PointerEvictions  uint64 // sharers displaced by a full Dir-i directory (extension E18)

	NetworkCycles uint64 // total cycles of link occupancy injected (Table 1)

	// PerProcReads and PerProcWrites are the per-processor access counts.
	// They are part of every stats.Result (and so of its JSON encoding),
	// and they are the only copy a trap writes: Reads and Writes are
	// derived from them by Fold.
	PerProcReads  []uint64
	PerProcWrites []uint64
}

// NewCounters returns counters sized for p processors.
func NewCounters(p int) *Counters {
	return &Counters{PerProcReads: make([]uint64, p), PerProcWrites: make([]uint64, p)}
}

// CountRead records a read issued by processor p. Only the per-processor
// cell is written; the aggregate Reads/Writes totals are derived by Fold at
// harvest time, so each access is counted in exactly one place.
func (c *Counters) CountRead(p int) {
	c.PerProcReads[p]++
}

// CountWrite records a write issued by processor p (per-processor cell
// only; see CountRead).
func (c *Counters) CountWrite(p int) {
	c.PerProcWrites[p]++
}

// Fold derives the aggregate Reads/Writes totals from the per-processor
// counts. Idempotent; every protocol's Counters() accessor calls it so
// consumers always see consistent totals.
func (c *Counters) Fold() *Counters {
	var r, w uint64
	for _, n := range c.PerProcReads {
		r += n
	}
	for _, n := range c.PerProcWrites {
		w += n
	}
	c.Reads, c.Writes = r, w
	return c
}

func (c *Counters) String() string {
	return fmt.Sprintf("reads=%d writes=%d rmiss=%d wmiss=%d cold=%d msgs=%d bytes=%d inval=%d upd=%d selfinv=%d",
		c.Reads, c.Writes, c.ReadMisses, c.WriteMisses, c.ColdMisses,
		c.Messages, c.Bytes, c.Invalidations, c.Updates, c.SelfInvalidations)
}
