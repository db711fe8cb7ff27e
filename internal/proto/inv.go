package proto

import (
	"zsim/internal/cache"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
)

// inv is the write-invalidate family: RCinv (paper §4: release consistency
// with a Berkeley-style write-invalidate protocol and a store buffer) and
// SCinv (sequential consistency: every write stalls to global completion —
// the reference machine "most memory system studies" use).
//
// The optional sequential prefetcher (Params.PrefetchDegree) implements the
// §6 architectural implication that cold-miss-dominated applications like
// Cholesky want prefetching: a read miss also fetches the next N lines,
// whose fills complete in the background.
type inv struct {
	base
	sc   bool // sequentially consistent variant
	lazy bool // rcsync: releases never drain; consumers wait on the watermark
}

func newInv(p memsys.Params, net *mesh.Net, sc, lazy bool) *inv {
	return &inv{
		base: newBase(p, net),
		sc:   sc,
		lazy: lazy,
	}
}

func (v *inv) Name() memsys.Kind {
	switch {
	case v.sc:
		return memsys.KindSCInv
	case v.lazy:
		return memsys.KindRCSync
	}
	return memsys.KindRCInv
}

func (v *inv) Read(p int, addr memsys.Addr, size int, now Time) Time {
	v.ctr.CountRead(p)
	n := v.node(p)
	line := v.line(addr)
	if l, ok := v.caches[n].Lookup(line); ok {
		v.caches[n].Touch(line)
		// A prefetched line may still be in flight; waiting for the rest of
		// its fill is (reduced) read stall. A Modified line is the
		// processor's own pending write: store-buffer forwarding, no stall.
		if l.State == cache.Shared && l.ReadyAt > now {
			return l.ReadyAt - now
		}
		return 0
	}
	v.ctr.ReadMisses++
	if v.markSeen(n, line) {
		v.ctr.ColdMisses++
	}
	t := v.readFill(n, line, now)
	v.fill(n, line, cache.Shared, t)
	v.prefetch(n, line, now)
	return t - now
}

// prefetch issues background fills for the lines following a demand miss.
// n is the requesting node.
func (v *inv) prefetch(n int, line memsys.Addr, now Time) {
	for i := 1; i <= v.p.PrefetchDegree; i++ {
		nl := line + memsys.Addr(i)
		if _, ok := v.caches[n].Lookup(nl); ok {
			continue
		}
		v.ctr.Prefetches++
		v.markSeen(n, nl)
		t := v.readFill(n, nl, now)
		v.fill(n, nl, cache.Shared, t)
	}
}

func (v *inv) Write(p int, addr memsys.Addr, size int, now Time) Time {
	v.ctr.CountWrite(p)
	n := v.node(p)
	line := v.line(addr)
	if l, ok := v.caches[n].Lookup(line); ok && l.State == cache.Modified {
		v.caches[n].Touch(line)
		return 0 // already owned (possibly by a pending store-buffer entry)
	}
	v.ctr.WriteMisses++
	if v.sc {
		// Sequential consistency: the processor stalls until the write is
		// globally performed.
		return v.ownership(n, line, now) - now
	}
	// Release consistency: record the miss in the store buffer and continue;
	// stall only if the buffer is full.
	stall := v.sb[n].Reserve(now)
	completion := v.ownership(n, line, now+stall)
	v.sb[n].Add(completion)
	return stall
}

func (v *inv) Release(p int, now Time) Time {
	if v.sc {
		return 0 // writes already performed in order
	}
	if v.lazy {
		// §6 decoupling: the producer never stalls; the data-flow
		// guarantee moves to the consumer via ReleaseWatermark.
		return 0
	}
	return v.sb[v.node(p)].DrainStall(now)
}

// ReleaseWatermark implements memsys.TokenSystem. Only the rcsync variant
// decouples data flow from synchronization; for the eager variants the
// watermark is the current time (their releases have already drained, and
// synchronization must not double-charge them).
func (v *inv) ReleaseWatermark(p int, now Time) Time {
	if !v.lazy {
		return now
	}
	return v.sb[v.node(p)].Watermark(now)
}

func (v *inv) Acquire(int, Time) Time { return 0 }
