// Package proto implements the simulated memory systems evaluated by the
// paper: the z-machine reference model, the four release-consistent systems
// built on the common CC-NUMA base hardware (RCinv, RCupd, RCcomp, RCadapt),
// and two extra baselines this reproduction adds (SCinv, the sequentially
// consistent invalidate system "most memory system studies" use as their
// frame of reference, and PRAM for the paper's §5 z-machine≈PRAM result).
//
// Every system returns, per access, the stall imposed on the issuing
// processor, classified by the paper's overhead taxonomy: Read → read-stall,
// Write → write-stall, Release → buffer-flush.
package proto

import (
	"fmt"
	"math"

	"zsim/internal/cache"
	"zsim/internal/directory"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/metrics"
	"zsim/internal/wbuffer"
)

// Time aliases virtual time.
type Time = memsys.Time

// New constructs the memory system of the given kind sharing the provided
// interconnect.
func New(kind memsys.Kind, p memsys.Params, net *mesh.Net) (memsys.MemSystem, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case memsys.KindZMachine:
		return newZMachine(p, net), nil
	case memsys.KindPRAM:
		return newPRAM(p), nil
	case memsys.KindRCInv:
		return newInv(p, net, false, false), nil
	case memsys.KindSCInv:
		return newInv(p, net, true, false), nil
	case memsys.KindRCSync:
		return newInv(p, net, false, true), nil
	case memsys.KindRCUpd:
		return newUpd(p, net, updPlain), nil
	case memsys.KindRCComp:
		return newUpd(p, net, updCompetitive), nil
	case memsys.KindRCAdapt:
		return newUpd(p, net, updAdaptive), nil
	}
	return nil, fmt.Errorf("proto: unknown memory system %q", kind)
}

// MustNew is New panicking on error (for tests and internal harnesses).
func MustNew(kind memsys.Kind, p memsys.Params, net *mesh.Net) memsys.MemSystem {
	m, err := New(kind, p, net)
	if err != nil {
		panic(err)
	}
	return m
}

// base is the hardware common to the real (non-ideal) memory systems: the
// mesh, per-node full-map directories, per-node private caches, and
// message-cost helpers. Hardware state (caches, buffers, directories) is
// per NUMA node; with HWThreads > 1 several execution streams share each
// node's hardware, and requests are issued on behalf of the stream's node.
type base struct {
	p      memsys.Params
	net    *mesh.Net
	dir    *directory.Directory
	caches []cache.Cache
	// copies is the infinite caches' shared copy table, from which a
	// coherence fan-out reads a line's copies; nil with finite caches,
	// which share no table.
	copies *cache.Table
	// seen is the cold-miss bitmap: bit line·nodes + node is set once the
	// node has cached the line. It is consulted on every miss, so the
	// lookup must not hash or allocate.
	seen memsys.Paged[uint64]
	ctr  *memsys.Counters
	// targets is the list a coherence fan-out works on: sharers lists a
	// line's presence set into it, in ascending id.
	targets []int
	// sb is the per-node store buffers. They and the update systems' merge
	// buffers count into wb, which PublishMetrics harvests.
	sb []wbuffer.StoreBuffer
	wb *wbuffer.Meter

	// nodes and threads are p.Nodes() and p.HWThreads, kept as plain ints
	// so that the per-access node and home mapping does not copy p.
	nodes, threads int
	// dropInval and dropUpdate resolve p.FaultInjection once: the seeded
	// defect loses the message to the first sharer of every invalidation
	// or update fan-out.
	dropInval, dropUpdate bool
}

func newBase(p memsys.Params, net *mesh.Net) base {
	nodes := p.Nodes()
	wb := new(wbuffer.Meter)
	b := base{
		p:       p,
		net:     net,
		dir:     directory.New(nodes, p.LineSize),
		ctr:     memsys.NewCounters(p.Procs),
		sb:      wbuffer.NewStores(nodes, p.StoreBufEntries, wb),
		wb:      wb,
		nodes:   nodes,
		threads: p.HWThreads,

		dropInval:  p.FaultInjection == "drop-inval",
		dropUpdate: p.FaultInjection == "drop-update",
	}
	if !p.FiniteCache {
		b.copies, b.caches = cache.NewInfinites(nodes)
		return b
	}
	b.caches = make([]cache.Cache, nodes)
	for i := range b.caches {
		b.caches[i] = cache.NewFinite(p.CacheLines, p.CacheAssoc)
	}
	return b
}

func (b *base) Counters() *memsys.Counters { return b.ctr.Fold() }

// PublishMetrics harvests the hardware state only the protocol can see —
// directory occupancy, cache residency/evictions and the store buffers'
// counts — into r (implements metrics.Publisher). The protocol event
// counters (misses, invalidations, updates) are published by the machine
// from Counters().
func (b *base) PublishMetrics(r *metrics.Registry) {
	r.Gauge("directory.entries").Set(int64(b.dir.Entries()))
	r.Counter("directory.allocs").Add(b.dir.Allocs())
	var resident int
	var evictions uint64
	for _, c := range b.caches {
		resident += c.Len()
		evictions += c.Evictions()
	}
	r.Gauge("cache.resident_lines").Set(int64(resident))
	r.Counter("cache.evictions").Add(evictions)
	b.wb.PublishMetrics(r)
}

func (b *base) line(addr memsys.Addr) memsys.Addr { return memsys.Line(addr, b.p.LineSize) }

func (b *base) home(line memsys.Addr) int { return int(line % memsys.Addr(b.nodes)) }

// node maps an execution stream to the NUMA node whose hardware it uses.
func (b *base) node(p int) int { return p / b.threads }

// ctrl models a control message (request, invalidation, ack).
func (b *base) ctrl(src, dst int, t Time) Time {
	if src != dst {
		b.ctr.Messages++
		b.ctr.Bytes += uint64(b.p.CtrlBytes)
	}
	return b.net.Send(src, dst, b.p.CtrlBytes, t)
}

// data models a message carrying one cache line of data.
func (b *base) data(src, dst int, t Time) Time {
	if src != dst {
		b.ctr.Messages++
		b.ctr.DataMsgs++
		b.ctr.Bytes += uint64(b.p.HeaderBytes + b.p.LineSize)
	}
	return b.net.Send(src, dst, b.p.HeaderBytes+b.p.LineSize, t)
}

// sharers lists the line's sharers other than p into b.targets, in
// ascending id, and returns the list. It clears p's presence bit first, so
// the list needs no filtering: the requester gets no message of its own
// fan-out, and every fan-out puts p back in the set when it is done.
func (b *base) sharers(e *directory.Entry, p int) []int {
	e.Sharers.Remove(p)
	b.targets = e.Sharers.AppendTo(b.targets[:0])
	return b.targets
}

// invalidate drops the listed nodes' copies of the line, through the
// line's copies when the caches share a table, and counts one
// invalidation each.
func (b *base) invalidate(line memsys.Addr, nodes []int) {
	b.ctr.Invalidations += uint64(len(nodes))
	if b.copies == nil {
		for _, s := range nodes {
			b.caches[s].Invalidate(line)
		}
		return
	}
	cp := b.copies.Copies(line)
	for _, s := range nodes {
		if l := cp.At(s); l != nil {
			l.State = cache.Invalid
		}
	}
}

// fanOut books a coherence fan-out from the home: for each of dsts in
// order, a message (a line of data when data is set, else a control
// message) followed at once by its control ack back to the home. It
// returns when the last ack reaches the home, or t when no message was
// sent. A node at the home costs nothing and counts no message.
func (b *base) fanOut(home int, dsts []int, data bool, t Time) Time {
	out := b.p.CtrlBytes
	if data {
		out = b.p.HeaderBytes + b.p.LineSize
	}
	acks, trips := b.net.Fan(home, dsts, out, b.p.CtrlBytes, t)
	b.ctr.Messages += 2 * uint64(trips)
	b.ctr.Bytes += uint64(trips) * uint64(out+b.p.CtrlBytes)
	if data {
		b.ctr.DataMsgs += uint64(trips)
	}
	return acks
}

// markSeen records that node p has cached the line at least once, and
// reports whether this is the first time (a cold touch).
func (b *base) markSeen(p int, line memsys.Addr) (cold bool) {
	i := uint64(line)*uint64(b.nodes) + uint64(p)
	w, bit := b.seen.At(i/64), uint64(1)<<(i%64)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	return true
}

// insert puts the line into p's cache, emitting the writeback traffic for a
// dirty victim when the cache is finite.
func (b *base) insert(p int, line memsys.Addr, st cache.State, readyAt Time) *cache.Line {
	l, victim, vstate, evicted := b.caches[p].Insert(line)
	if evicted {
		b.evict(p, victim, vstate, readyAt)
	}
	l.State = st
	l.ReadyAt = readyAt
	return l
}

// fill inserts the line into p's cache carrying the directory's current
// contents: the copy is stamped with the entry's version, which is how the
// conformance audit distinguishes a fresh copy from a stale one.
func (b *base) fill(p int, line memsys.Addr, st cache.State, readyAt Time) *cache.Line {
	l := b.insert(p, line, st, readyAt)
	l.Version = uint32(b.dir.Entry(line * memsys.Addr(b.p.LineSize)).Version)
	return l
}

// bumpVersion counts a write transaction that makes new contents of the
// line globally visible: an ownership acquisition or an update fan-out. A
// copy holds its version in 32 bits (cache.Line.Version), so a bump past
// math.MaxUint32 panics, naming the line, rather than wrap and leave the
// audit's stale-copy check and CopyVersion comparing wrapped versions.
func bumpVersion(e *directory.Entry, line memsys.Addr) {
	if e.Version >= math.MaxUint32 {
		panic(fmt.Sprintf("proto: line %#x: version %d would pass the 32 bits a cached copy holds", line, e.Version))
	}
	e.Version++
}

// evict handles a capacity/conflict victim: the directory is notified
// (replacement hint) and dirty data is written back. Traffic is accounted
// but does not extend the requesting processor's critical path.
func (b *base) evict(p int, victim memsys.Addr, vstate cache.State, t Time) {
	ve := b.dir.Entry(victim * memsys.Addr(b.p.LineSize))
	ve.Sharers.Remove(p)
	if vstate == cache.Modified {
		b.data(p, b.home(victim), t) // writeback
		ve.State = directory.SharedClean
		if ve.Sharers.Count() == 0 {
			ve.State = directory.Uncached
		}
	} else if ve.Sharers.Count() == 0 && ve.State == directory.SharedClean {
		ve.State = directory.Uncached
	}
	b.ctrl(p, b.home(victim), t) // replacement hint
}

// enforcePointers applies the Dir-i limit: if the entry now tracks more
// sharers than the directory has pointers for, the lowest-numbered sharer
// other than keep is invalidated (a pointer eviction). Traffic is
// accounted off the requester's critical path.
func (b *base) enforcePointers(e *directory.Entry, line memsys.Addr, keep int, t Time) {
	limit := b.p.DirPointers
	if limit <= 0 {
		return
	}
	excess := e.Sharers.Count() - limit
	if excess <= 0 {
		return
	}
	home := b.home(line)
	b.targets = e.Sharers.AppendTo(b.targets[:0])
	for _, victim := range b.targets {
		if excess == 0 {
			return
		}
		if victim == keep {
			continue
		}
		b.ctrl(home, victim, t)
		b.caches[victim].Invalidate(line)
		e.Sharers.Remove(victim)
		b.ctr.Invalidations++
		b.ctr.PointerEvictions++
		excess--
	}
}

// readFill performs the remote part of a read miss by processor p and
// returns the fill completion time. The caller updates sharer/cache state.
func (b *base) readFill(p int, line memsys.Addr, now Time) Time {
	addr := line * memsys.Addr(b.p.LineSize)
	e := b.dir.Entry(addr)
	home := b.home(line)
	t := b.ctrl(p, home, now) + b.p.DirLatency
	if owner := int(e.Owner); e.State == directory.Dirty && owner != p {
		// Forward to the owner; owner supplies data to the requester and
		// writes back to home (off the critical path).
		fwd := b.ctrl(home, owner, t)
		b.data(owner, home, fwd) // sharing writeback
		t = b.data(owner, p, fwd)
		if ol, ok := b.caches[owner].Lookup(line); ok {
			ol.State = cache.Shared
		}
		e.State = directory.SharedClean
	} else {
		t += b.p.MemLatency
		t = b.data(home, p, t)
		if e.State == directory.Uncached {
			e.State = directory.SharedClean
		}
	}
	e.Sharers.Add(p)
	b.enforcePointers(e, line, p, t)
	return t
}

// ownership acquires exclusive ownership of the line for processor p
// (write-invalidate systems) and returns the completion time at which the
// write is globally performed.
func (b *base) ownership(p int, line memsys.Addr, now Time) Time {
	addr := line * memsys.Addr(b.p.LineSize)
	e := b.dir.Entry(addr)
	home := b.home(line)
	t := b.ctrl(p, home, now) + b.p.DirLatency
	owner := int(e.Owner)
	switch {
	case e.State == directory.Dirty && owner != p:
		// Transfer ownership from the current owner.
		fwd := b.ctrl(home, owner, t)
		b.caches[owner].Invalidate(line)
		b.ctr.Invalidations++
		t = b.data(owner, p, fwd)
	case e.State == directory.Dirty && owner == p:
		// Already owned (e.g. racing entry in the store buffer): refresh.
		t = b.ctrl(home, p, t)
	default:
		// Invalidate every other sharer; acks return to home.
		targets := b.sharers(e, p)
		if b.dropInval && len(targets) > 0 {
			// Seeded defect: the invalidation to one sharer is lost, so a
			// stale read-only copy survives the ownership transfer.
			targets = targets[1:]
		}
		b.invalidate(line, targets)
		acks := b.fanOut(home, targets, false, t)
		_, hadCopy := b.caches[p].Lookup(line)
		if hadCopy {
			t = b.ctrl(home, p, acks)
		} else {
			t = b.data(home, p, acks+b.p.MemLatency)
		}
	}
	e.State = directory.Dirty
	e.Owner = int32(p)
	e.Sharers.Clear()
	e.Sharers.Add(p)
	bumpVersion(e, line) // new contents become globally visible with this ownership
	b.markSeen(p, line)
	b.fill(p, line, cache.Modified, t)
	return t
}
