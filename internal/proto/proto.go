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
	// seen[node] marks lines ever cached by the node (cold-miss tracking):
	// paged flat tables indexed by the dense line number, consulted on every
	// miss, so the lookup must not hash or allocate.
	seen []memsys.Paged[bool]
	ctr  *memsys.Counters
	// targets lists the sharers a coherence fan-out sends to, in ascending
	// id; each fan-out's selection pass refills it, and fanOut sends to it.
	targets []int

	// nodes and threads are p.Nodes() and p.HWThreads, kept as plain ints
	// so that the per-access node and home mapping does not copy p.
	nodes, threads int
}

func newBase(p memsys.Params, net *mesh.Net) base {
	nodes := p.Nodes()
	b := base{
		p:       p,
		net:     net,
		dir:     directory.New(nodes, p.LineSize),
		seen:    make([]memsys.Paged[bool], nodes),
		ctr:     memsys.NewCounters(p.Procs),
		nodes:   nodes,
		threads: p.HWThreads,
	}
	if !p.FiniteCache {
		b.caches = cache.NewInfinites(nodes)
		return b
	}
	b.caches = make([]cache.Cache, nodes)
	for i := range b.caches {
		b.caches[i] = cache.NewFinite(p.CacheLines, p.CacheAssoc)
	}
	return b
}

func (b *base) Counters() *memsys.Counters { return b.ctr.Fold() }

// instrumentStoreBuffers wires every node's store buffer to one shared set
// of metric handles (per-node attribution is not needed by the gate).
func (b *base) instrumentStoreBuffers(r *metrics.Registry, sbs []*wbuffer.StoreBuffer) {
	occ := r.Histogram("wbuffer.occupancy", wbuffer.OccupancyBuckets)
	full := r.Counter("wbuffer.full_stall_cycles")
	flush := r.Counter("wbuffer.flush_stall_cycles")
	flushes := r.Counter("wbuffer.flushes")
	for _, sb := range sbs {
		sb.Instrument(occ, full, flush, flushes)
	}
}

// PublishMetrics harvests the hardware state only the protocol can see —
// directory occupancy and cache residency/evictions — into r (implements
// metrics.Publisher). The protocol event counters (misses, invalidations,
// updates) are published by the machine from Counters().
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

// fanOut books a coherence fan-out from the home: for each node of
// b.targets in order, a message (a line of data when data is set, else a
// control message) followed at once by its control ack back to the home.
// It returns when the last ack reaches the home, or t when no node is
// listed. A target at the home costs nothing and counts no message.
func (b *base) fanOut(home int, data bool, t Time) Time {
	out := b.p.CtrlBytes
	if data {
		out = b.p.HeaderBytes + b.p.LineSize
	}
	for _, s := range b.targets {
		if s == home {
			continue
		}
		b.ctr.Messages += 2
		b.ctr.Bytes += uint64(out + b.p.CtrlBytes)
		if data {
			b.ctr.DataMsgs++
		}
	}
	return b.net.Fan(home, b.targets, out, b.p.CtrlBytes, t)
}

// markSeen records that processor p has cached the line at least once, and
// reports whether this is the first time (a cold touch).
func (b *base) markSeen(p int, line memsys.Addr) (cold bool) {
	s := b.seen[p].At(uint64(line))
	if *s {
		return false
	}
	*s = true
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
	l.Version = b.dir.Entry(line * memsys.Addr(b.p.LineSize)).Version
	return l
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
	home := b.home(line)
	for e.Sharers.Count() > limit {
		victim := -1
		e.Sharers.ForEach(func(s int) {
			if victim < 0 && s != keep {
				victim = s
			}
		})
		if victim < 0 {
			return
		}
		b.ctrl(home, victim, t)
		b.caches[victim].Invalidate(line)
		e.Sharers.Remove(victim)
		b.ctr.Invalidations++
		b.ctr.PointerEvictions++
	}
}

// readFill performs the remote part of a read miss by processor p and
// returns the fill completion time. The caller updates sharer/cache state.
func (b *base) readFill(p int, line memsys.Addr, now Time) Time {
	addr := line * memsys.Addr(b.p.LineSize)
	e := b.dir.Entry(addr)
	home := b.home(line)
	t := b.ctrl(p, home, now) + b.p.DirLatency
	if e.State == directory.Dirty && e.Owner != p {
		// Forward to the owner; owner supplies data to the requester and
		// writes back to home (off the critical path).
		fwd := b.ctrl(home, e.Owner, t)
		b.data(e.Owner, home, fwd) // sharing writeback
		t = b.data(e.Owner, p, fwd)
		if ol, ok := b.caches[e.Owner].Lookup(line); ok {
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
	switch {
	case e.State == directory.Dirty && e.Owner != p:
		// Transfer ownership from the current owner.
		fwd := b.ctrl(home, e.Owner, t)
		b.caches[e.Owner].Invalidate(line)
		b.ctr.Invalidations++
		t = b.data(e.Owner, p, fwd)
	case e.State == directory.Dirty && e.Owner == p:
		// Already owned (e.g. racing entry in the store buffer): refresh.
		t = b.ctrl(home, p, t)
	default:
		// Invalidate every other sharer; acks return to home.
		b.targets = b.targets[:0]
		dropped := false
		e.Sharers.ForEach(func(s int) {
			if s == p {
				return
			}
			if b.p.FaultInjection == "drop-inval" && !dropped {
				// Seeded defect: the invalidation to one sharer is lost, so a
				// stale read-only copy survives the ownership transfer.
				dropped = true
				return
			}
			b.caches[s].Invalidate(line)
			b.ctr.Invalidations++
			b.targets = append(b.targets, s)
		})
		acks := b.fanOut(home, false, t)
		_, hadCopy := b.caches[p].Lookup(line)
		if hadCopy {
			t = b.ctrl(home, p, acks)
		} else {
			t = b.data(home, p, acks+b.p.MemLatency)
		}
	}
	e.State = directory.Dirty
	e.Owner = p
	e.Sharers.Clear()
	e.Sharers.Add(p)
	e.Version++ // new contents become globally visible with this ownership
	b.markSeen(p, line)
	b.fill(p, line, cache.Modified, t)
	return t
}
