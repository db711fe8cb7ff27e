package main

import (
	"fmt"
	"time"

	"zsim/internal/cache"
	"zsim/internal/directory"
	"zsim/internal/memsys"
	"zsim/internal/mesh"
	"zsim/internal/sim"
)

// unitCosts are the ledger's per-event host costs, each the median of
// several repetitions of a microbenchmark of one layer's public call.
type unitCosts struct {
	timerNs      float64            // an empty time.Now/time.Since pair, subtracted from decorator timings
	handoffNs    float64            // one full Sync switch between two processors
	fastpathNs   float64            // one Sync that returns without a switch
	firstTouchNs float64            // allocating one fresh Paged[uint64] page
	lookupNs     float64            // one infinite-cache Lookup of a resident line
	entryNs      float64            // one directory Entry access of an existing line
	hopNs        map[string]float64 // Net.Send time per routing hop, by network (see netKey)
}

// ledgerReps is how many times each microbenchmark repeats; the median is
// kept.
const ledgerReps = 5

// pagedPageLen is the element count of one memsys.Paged page; a test pins
// it against the real table.
const pagedPageLen = 4096

func netKey(p memsys.Params) string {
	return fmt.Sprintf("%s/%dx%d", p.Topology, p.MeshW, p.MeshH)
}

// measureUnitCosts runs every ledger microbenchmark once, with Net.Send
// measured on each network the workload's cells use. It takes about a
// second.
func measureUnitCosts(w *spec) *unitCosts {
	u := &unitCosts{
		timerNs:      medianOf(timerNs),
		handoffNs:    medianOf(handoffNs),
		fastpathNs:   medianOf(fastpathNs),
		firstTouchNs: medianOf(firstTouchNs),
		lookupNs:     medianOf(lookupNs),
		entryNs:      medianOf(entryNs),
		hopNs:        map[string]float64{},
	}
	for _, c := range w.cells {
		k := netKey(c.params)
		if _, ok := u.hopNs[k]; !ok {
			p := c.params
			u.hopNs[k] = medianOf(func() float64 { return hopNs(p) })
		}
	}
	return u
}

func medianOf(f func() float64) float64 {
	v := make([]float64, ledgerReps)
	for i := range v {
		v[i] = f()
	}
	return median(v)
}

func nsPer(d time.Duration, n uint64) float64 {
	return float64(d.Nanoseconds()) / float64(n)
}

// timerNs is what the decorator records for a call that does nothing: the
// mean of time.Since over an empty interval.
func timerNs() float64 {
	const n = 200_000
	var d time.Duration
	for i := 0; i < n; i++ {
		s := time.Now()
		d += time.Since(s)
	}
	return nsPer(d, n)
}

// syncLoop runs n Advance+Sync steps on each of procs processors of a fresh
// engine. With two processors advancing in lockstep, every Sync finds the
// other processor first in (clock, id) order and switches; a lone
// processor never has anyone to switch to, so every Sync takes the fast
// path.
func syncLoop(procs, n int) (*sim.Engine, time.Duration) {
	e := sim.NewEngine(procs)
	start := time.Now()
	e.Run(func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
			p.Sync()
		}
	})
	return e, time.Since(start)
}

func handoffNs() float64 {
	e, d := syncLoop(2, 50_000)
	return nsPer(d, e.Switches())
}

func fastpathNs() float64 {
	e, d := syncLoop(1, 1_000_000)
	return nsPer(d, e.FastPathHits())
}

func firstTouchNs() float64 {
	const pages = 256
	var t memsys.Paged[uint64]
	start := time.Now()
	for i := uint64(0); i < pages; i++ {
		*t.At(i * pagedPageLen) = i
	}
	return nsPer(time.Since(start), uint64(t.Pages()))
}

func lookupNs() float64 {
	const lines, n = 4096, 1_000_000
	c := cache.NewInfinite()
	for l := memsys.Addr(0); l < lines; l++ {
		c.Insert(l)
	}
	hits := 0
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, ok := c.Lookup(memsys.Addr(i % lines)); ok {
			hits++
		}
	}
	return nsPer(time.Since(start), uint64(hits))
}

func entryNs() float64 {
	const procs, lineSize, lines, n = 64, 32, 4096, 1_000_000
	d := directory.New(procs, lineSize)
	for l := 0; l < lines; l++ {
		d.Entry(memsys.Addr(l * lineSize))
	}
	var v uint64
	start := time.Now()
	for i := 0; i < n; i++ {
		v += d.Entry(memsys.Addr(i % lines * lineSize)).Version
	}
	_ = v
	return nsPer(time.Since(start), n)
}

// hopNs sends control messages between a fixed pseudo-random sequence of
// distinct node pairs on the network p describes, and returns the time per
// routing hop: Net.Send walks the route hop by hop, so a run's send time
// is priced by its own hop count.
func hopNs(p memsys.Params) float64 {
	const n = 100_000
	net := mesh.New(p)
	nodes := p.Nodes()
	src, dst := make([]int, n), make([]int, n)
	var hops uint64
	x := uint32(1)
	for i := range src {
		x = x*1664525 + 1013904223
		src[i] = int(x>>8) % nodes
		dst[i] = (src[i] + 1 + int(x>>20)%(nodes-1)) % nodes
		hops += uint64(net.Hops(src[i], dst[i]))
	}
	var t memsys.Time
	start := time.Now()
	for i := range src {
		t = net.Send(src[i], dst[i], p.CtrlBytes, t+100)
	}
	return nsPer(time.Since(start), hops)
}

// ledgerRow is one line of the cost ledger: a layer's seconds per pass and
// how they were obtained.
type ledgerRow struct {
	name    string
	seconds float64
	how     string
}

// ledger breaks the median traced pass's Machine.Run seconds down by layer.
// The first four rows partition the run: the residual is what neither the
// modeled kernel time nor the measured protocol time explains. The rows
// after them price parts of those rows and overlap them.
func ledger(m map[string]float64) []ledgerRow {
	run := m["machine.run_s"]
	protoS := m["proto.read_s"] + m["proto.write_s"] + m["proto.release_s"] + m["proto.acquire_s"]
	return []ledgerRow{
		{"machine.run_s", run, "measured: sum of Machine.Run calls"},
		{"sim (kernel)", m["sim.modeled_s"], "modeled: switches x handoff_ns + fast-path hits x fastpath_ns"},
		{"proto (protocol calls)", protoS, "measured: Mem decorator, net of timer cost"},
		{"residual (unexplained)", run - m["sim.modeled_s"] - protoS, "run - sim - proto: trap glue, psync, app compute, GC assists, model error"},
		{"mesh", m["mesh.modeled_s"], "modeled: hops x hop cost of each cell's network; inside proto and psync"},
		{"cache", m["cache.modeled_s"], "modeled: (reads + writes) x lookup_ns; inside proto"},
		{"directory", m["directory.modeled_s"], "modeled: (read + write misses) x entry_ns; inside proto"},
		{"goruntime.gc_cpu_s", m["goruntime.gc_cpu_s"], "measured: runtime/metrics; GC workers beside the rows above"},
	}
}
