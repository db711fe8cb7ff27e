package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// series is one metric's samples, one per pass (one in all for a
// whole-run quantity such as peak RSS).
type series struct {
	name    string
	unit    string
	samples []float64
}

// quantile interpolates linearly between the closest ranks of the sorted
// samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// endToEnd returns the end-to-end metrics, from untraced passes only.
func endToEnd(r *result) []series {
	ps := r.untraced()
	each := func(f func(*pass) float64) []float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return v
	}
	return []series{
		{"wall_s", "s", each((*pass).wallS)},
		{"traps_per_s", "traps/s", each(func(p *pass) float64 {
			return p.sum(func(c *cellRun) float64 { return float64(c.yields) }) / p.sum((*cellRun).runS)
		})},
		{"setup_s", "s", r.setups},
		{"peak_rss_mb", "MB", []float64{r.peakRSSMB}},
	}
}

// perLayer returns the per-layer metrics, one sample per traced pass, in
// the order layerSample lists them, then trace.overhead_frac.
func perLayer(r *result) []series {
	var out []series
	for pi, p := range r.traced() {
		for i, v := range layerSample(r, p) {
			if pi == 0 {
				out = append(out, series{name: v.name, unit: v.unit})
			}
			out[i].samples = append(out[i].samples, v.value)
		}
	}
	overhead := median(passWalls(r.traced()))/median(passWalls(r.untraced())) - 1
	return append(out, series{"trace.overhead_frac", "fraction", []float64{overhead}})
}

func passWalls(ps []*pass) []float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = p.wallS()
	}
	return v
}

// layerValue is one per-layer metric of one traced pass.
type layerValue struct {
	name, unit string
	value      float64
}

// layerSample computes every per-layer metric of one traced pass. A count
// is per pass, summed over the pass's cells; seconds are host seconds per
// pass, summed over cells (so they can exceed the pass's wall time when
// cells run in parallel).
func layerSample(r *result, p *pass) []layerValue {
	u := r.costs
	c := map[string]float64{} // the cells' metrics registries, summed
	var ops [numOps]opStat
	var meshS float64
	for i := range p.cells {
		cr := &p.cells[i]
		for name, v := range cr.snap.Counters {
			c[name] += float64(v)
		}
		c["cache.resident_lines"] += float64(cr.snap.Gauges["cache.resident_lines"].Value)
		meshS += float64(cr.snap.Histograms["mesh.hops"].Sum) * u.hopNs[netKey(r.w.cells[i].params)] / 1e9
		for op := range ops {
			ops[op].N += cr.ops[op].N
			ops[op].Ns += cr.ops[op].Ns
		}
	}
	// netS is an operation's total seconds less the timer's own cost.
	netS := func(op int) float64 { return (float64(ops[op].Ns) - float64(ops[op].N)*u.timerNs) / 1e9 }
	perCall := func(op int) float64 { return ratio(netS(op)*1e9, float64(ops[op].N)) }
	runS := p.sum((*cellRun).runS)
	protoS := netS(opRead) + netS(opWrite) + netS(opRelease) + netS(opAcquire)
	return []layerValue{
		{"sim.yields", "count", c["sim.yields"]},
		{"sim.switches", "count", c["sim.switches"]},
		{"sim.blocks", "count", c["sim.blocks"]},
		{"sim.fastpath_frac", "fraction", ratio(c["sim.fastpath_hits"], c["sim.yields"])},
		{"sim.handoff_ns", "ns", u.handoffNs},
		{"sim.fastpath_ns", "ns", u.fastpathNs},
		{"sim.modeled_s", "s", (c["sim.switches"]*u.handoffNs + c["sim.fastpath_hits"]*u.fastpathNs) / 1e9},
		{"goruntime.sched_latency_p50_us", "us", p.rt.schedP50s * 1e6},
		{"goruntime.sched_latency_p99_us", "us", p.rt.schedP99s * 1e6},
		{"goruntime.alloc_mb", "MB", float64(p.rt.allocBytes) / (1 << 20)},
		{"goruntime.gc_cycles", "count", float64(p.rt.gcCycles)},
		{"goruntime.gc_cpu_s", "s", p.rt.gcCPUs},
		{"memsys.first_touch_ns_per_page", "ns", u.firstTouchNs},
		{"machine.new_s", "s", p.sum((*cellRun).newS)},
		{"machine.run_s", "s", runS},
		{"machine.residual_s", "s", runS - protoS},
		{"apps.setup_s", "s", p.sum((*cellRun).appS)},
		{"apps.verify_s", "s", p.sum((*cellRun).verifyS)},
		{"proto.read_s", "s", netS(opRead)},
		{"proto.write_s", "s", netS(opWrite)},
		{"proto.release_s", "s", netS(opRelease)},
		{"proto.acquire_s", "s", netS(opAcquire)},
		{"proto.read_ns", "ns", perCall(opRead)},
		{"proto.write_ns", "ns", perCall(opWrite)},
		{"proto.reads", "count", c["proto.reads"]},
		{"proto.writes", "count", c["proto.writes"]},
		{"proto.read_misses", "count", c["proto.read_misses"]},
		{"proto.write_misses", "count", c["proto.write_misses"]},
		{"proto.invalidations", "count", c["proto.invalidations"]},
		{"proto.updates", "count", c["proto.updates"]},
		{"proto.read_hit_frac", "fraction", 1 - ratio(c["proto.read_misses"], c["proto.reads"])},
		{"proto.useless_update_frac", "fraction", ratio(c["proto.useless_updates"], c["proto.updates"])},
		{"mesh.msgs", "count", c["mesh.msgs"]},
		{"mesh.bytes", "bytes", c["mesh.bytes"]},
		{"mesh.queue_cycles", "cycles", c["mesh.queue_cycles"]},
		{"mesh.send_ns", "ns", ratio(meshS*1e9, c["mesh.msgs"])},
		{"mesh.modeled_s", "s", meshS},
		{"cache.evictions", "count", c["cache.evictions"]},
		{"cache.resident_lines", "count", c["cache.resident_lines"]},
		{"cache.lookup_ns", "ns", u.lookupNs},
		{"cache.modeled_s", "s", (c["proto.reads"] + c["proto.writes"]) * u.lookupNs / 1e9},
		{"directory.allocs", "count", c["directory.allocs"]},
		{"directory.entry_ns", "ns", u.entryNs},
		{"directory.modeled_s", "s", (c["proto.read_misses"] + c["proto.write_misses"]) * u.entryNs / 1e9},
		{"wbuffer.full_stall_cycles", "cycles", c["wbuffer.full_stall_cycles"]},
		{"wbuffer.flush_stall_cycles", "cycles", c["wbuffer.flush_stall_cycles"]},
		{"runner.busy_frac", "fraction", p.sum((*cellRun).wallS) / (float64(r.w.parallelism()) * p.wallS())},
	}
}

// ratio is a/b, or 0 when b is 0 (a ratio of no events).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
