package workload

import (
	"fmt"

	"zsim/internal/apps"
	"zsim/internal/apps/cholesky"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// Time aliases virtual time.
type Time = memsys.Time

// The sweeps below regenerate the paper's §6 architectural-implications
// analysis and §7 open issues as concrete ablation experiments.

// A point is one labelled cell of a sweep: one row of its table.
type point struct {
	label string
	cell
}

// vary returns one point per value: app on kind under base with set
// applied, labelled by the value as table prints it.
func vary[V any](app string, kind memsys.Kind, base memsys.Params, values []V, set func(p *memsys.Params, v V)) []point {
	points := make([]point, len(values))
	for i, v := range values {
		p := base
		set(&p, v)
		points[i] = point{text(v), cell{app, kind, p}}
	}
	return points
}

// sweep runs the points' cells as one grid and renders one row per point:
// its label, then cols of the point's index and result.
func sweep(scale Scale, title string, head []string, points []point, cols func(i int, r *stats.Result) []any) (*stats.Table, error) {
	labels := make([]string, len(points))
	cells := make([]cell, len(points))
	for i, pt := range points {
		labels[i], cells[i] = pt.label, pt.cell
	}
	results, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	return table(title, head, labels, func(i int) []any { return cols(i, results[i]) }), nil
}

// StoreBufferSweep varies the store buffer depth (§6: "write stall time is
// dependent on two parameters: the store buffer size and the relative speed
// of the network").
func StoreBufferSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Store buffer sweep: %s on %s", app, kind),
		[]string{"entries", "exec-cycles", "write-stall", "buf-flush", "overhead%"},
		vary(app, kind, base, sizes, func(p *memsys.Params, n int) { p.StoreBufEntries = n }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.TotalWriteStall(), r.TotalBufferFlush(), r.OverheadPct()}
		})
}

// NetworkSweep varies the link bandwidth (§6: improving the network speed
// relative to the processor lowers write stall).
func NetworkSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, cyclesPerByte []float64) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Network speed sweep: %s on %s", app, kind),
		[]string{"cyc/byte", "exec-cycles", "read-stall", "write-stall", "buf-flush", "overhead%"},
		vary(app, kind, base, cyclesPerByte, func(p *memsys.Params, c float64) { p.LinkCyclesPerByte = c }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(), r.OverheadPct()}
		})
}

// ThresholdSweep varies RCcomp's competitive self-invalidation threshold.
func ThresholdSweep(app string, scale Scale, base memsys.Params, thresholds []int) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Competitive threshold sweep: %s on rccomp", app),
		[]string{"threshold", "exec-cycles", "read-stall", "write-stall", "buf-flush", "self-inval", "overhead%"},
		vary(app, memsys.KindRCComp, base, thresholds, func(p *memsys.Params, n int) { p.CompThreshold = n }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.TotalReadStall(), r.TotalWriteStall(), r.TotalBufferFlush(),
				r.Counters.SelfInvalidations, r.OverheadPct()}
		})
}

// FiniteCacheSweep explores the §7 open issue: the overhead added by finite
// caches (capacity and conflict misses) versus the paper's infinite-cache
// assumption.
func FiniteCacheSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, lines []int) (*stats.Table, error) {
	points := append([]point{{"inf", cell{app, kind, base}}}, vary(app, kind, base, lines, func(p *memsys.Params, n int) {
		p.FiniteCache, p.CacheLines, p.CacheAssoc = true, n, 4
	})...)
	return sweep(scale, fmt.Sprintf("Finite cache sweep: %s on %s (4-way LRU)", app, kind),
		[]string{"cache-lines", "exec-cycles", "read-miss", "cold-miss", "read-stall", "overhead%"},
		points, func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.Counters.ReadMisses, r.Counters.ColdMisses, r.TotalReadStall(), r.OverheadPct()}
		})
}

// PrefetchSweep explores the §6 suggestion that cold-miss-dominated
// applications (Cholesky) benefit from prefetching.
func PrefetchSweep(app string, scale Scale, base memsys.Params, degrees []int) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Sequential prefetch sweep: %s on rcinv", app),
		[]string{"degree", "exec-cycles", "read-stall", "prefetches", "overhead%"},
		vary(app, memsys.KindRCInv, base, degrees, func(p *memsys.Params, n int) { p.PrefetchDegree = n }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.TotalReadStall(), r.Counters.Prefetches, r.OverheadPct()}
		})
}

// SCvsRC contrasts the sequentially consistent baseline (what most studies
// benchmark against) with release consistency, per application.
func SCvsRC(scale Scale, p memsys.Params) (*stats.Table, error) {
	return pairs(scale, "SCinv vs RCinv (write stall bought back by release consistency)",
		[]string{"app", "sc-exec", "rc-exec", "sc-write-stall", "rc-write-stall", "speedup"},
		cell{kind: memsys.KindSCInv, p: p}, cell{kind: memsys.KindRCInv, p: p},
		func(sc, rc *stats.Result) []any {
			return []any{sc.ExecTime, rc.ExecTime, sc.TotalWriteStall(), rc.TotalWriteStall(),
				fmt.Sprintf("%.3f", float64(sc.ExecTime)/float64(rc.ExecTime))}
		})
}

// MultithreadSweep explores the §7 open issue of multithreading as a
// latency-tolerance mechanism: the machine keeps a fixed set of NUMA nodes
// while each node runs 1, 2, 4, ... hardware threads, so the same total
// work (strong scaling) is attacked by more execution streams whose memory
// stalls overlap each other's computation. Each point derives its
// parameters from base with Params.WithThreads, so the topology and every
// other parameter but the machine's shape carry over.
func MultithreadSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, nodes int, threads []int) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Multithreading sweep: %s on %s, %d nodes", app, kind, nodes),
		[]string{"threads/node", "streams", "exec-cycles", "read-stall", "core-wait", "overhead%"},
		vary(app, kind, base, threads, func(p *memsys.Params, th int) { *p = p.WithThreads(nodes*th, th) }),
		func(i int, r *stats.Result) []any {
			return []any{nodes * threads[i], r.ExecTime, r.TotalReadStall(), r.TotalCoreWait(), r.OverheadPct()}
		})
}

// ScalabilitySweep runs an application across machine sizes on one memory
// system, reporting execution time and speedup over the first size's run.
// The paper's framework descends from the authors' scalability studies
// (SIGMETRICS'94 / JPDC'94); this sweep recreates that view. Each point
// derives its parameters from base with Params.WithProcs, so the topology
// and every other non-size parameter carry over.
func ScalabilitySweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, procs []int) (*stats.Table, error) {
	var first Time
	return sweep(scale, fmt.Sprintf("Scalability: %s on %s", app, kind),
		[]string{"procs", "exec-cycles", "speedup", "overhead%", "sync-wait"},
		vary(app, kind, base, procs, func(p *memsys.Params, n int) { *p = p.WithProcs(n) }),
		func(_ int, r *stats.Result) []any {
			if first == 0 {
				first = r.ExecTime
			}
			return []any{r.ExecTime, float64(first) / float64(r.ExecTime), r.OverheadPct(), r.TotalSyncWait()}
		})
}

// TopologySweep runs an application on one memory system across
// interconnect topologies (SPASM "provides a choice of network topologies";
// the paper's evaluation uses the mesh). The z-machine column shows how the
// topology moves the inherent-communication bound itself.
func TopologySweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, topologies []string) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Topology sweep: %s on %s", app, kind),
		[]string{"topology", "exec-cycles", "read-stall", "net-queueing-visible", "overhead%"},
		vary(app, kind, base, topologies, func(p *memsys.Params, t string) { p.Topology = t }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.TotalReadStall(), r.TotalWriteStall() + r.TotalBufferFlush(), r.OverheadPct()}
		})
}

// RCSyncComparison regenerates the §6 proposal experiment (E15): RCinv
// versus RCsync — identical hardware, but synchronization carries the
// data-flow guarantee so releases never stall. The paper predicts the
// buffer-flush component vanishes.
func RCSyncComparison(scale Scale, p memsys.Params) (*stats.Table, error) {
	return pairs(scale, "RCinv vs RCsync (paper §6: decouple data flow from synchronization)",
		[]string{"app", "rcinv-exec", "rcsync-exec", "rcinv-flush", "rcsync-flush", "speedup"},
		cell{kind: memsys.KindRCInv, p: p}, cell{kind: memsys.KindRCSync, p: p},
		func(inv, sy *stats.Result) []any {
			return []any{inv.ExecTime, sy.ExecTime, inv.TotalBufferFlush(), sy.TotalBufferFlush(),
				fmt.Sprintf("%.3f", float64(inv.ExecTime)/float64(sy.ExecTime))}
		})
}

// OrderingSweep contrasts Cholesky elimination orderings: the natural
// (band) ordering versus nested dissection. The ordering reshapes the
// whole system: fill, supernode structure, task parallelism, and hence the
// communication the memory systems must carry. Its cells are Cholesky
// configurations, not named applications, so it runs its own grid.
func OrderingSweep(scale Scale, kind memsys.Kind, p memsys.Params) (*stats.Table, error) {
	grid := cholesky.Small().Grid
	if scale == ScalePaper {
		grid = cholesky.Paper().Grid
	}
	orderings := []string{"natural", "nd"}
	type factored struct {
		app *cholesky.CH
		r   *stats.Result
	}
	runs, err := runner.Grid(len(orderings), func(i int) (factored, error) {
		app := cholesky.New(cholesky.Config{Grid: grid, Ordering: orderings[i]})
		m, err := machine.New(kind, p)
		if err != nil {
			return factored{}, err
		}
		r, err := apps.Run(app, m)
		if err != nil {
			return factored{}, fmt.Errorf("workload: cholesky/%s on %s: %w", orderings[i], kind, err)
		}
		return factored{app, r}, nil
	})
	if err != nil {
		return nil, err
	}
	return table(fmt.Sprintf("Elimination ordering sweep: cholesky on %s", kind),
		[]string{"ordering", "nnz(L)", "supernodes", "exec-cycles", "read-stall", "overhead%"},
		orderings, func(i int) []any {
			c := runs[i]
			return []any{c.app.Sym().NNZ(), c.app.Sym().NS(), c.r.ExecTime, c.r.TotalReadStall(), c.r.OverheadPct()}
		}), nil
}

// DirPointerSweep varies the directory's sharer-pointer budget (Dir-i
// versus the paper's full-map assumption) — extension E18. Widely shared
// data (Barnes-Hut's tree and bodies) suffers pointer thrashing when the
// budget is small.
func DirPointerSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, pointers []int) (*stats.Table, error) {
	points := append([]point{{"full-map", cell{app, kind, base}}},
		vary(app, kind, base, pointers, func(p *memsys.Params, n int) { p.DirPointers = n })...)
	return sweep(scale, fmt.Sprintf("Directory pointer sweep: %s on %s", app, kind),
		[]string{"pointers", "exec-cycles", "read-miss", "ptr-evictions", "overhead%"},
		points, func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.Counters.ReadMisses, r.Counters.PointerEvictions, r.OverheadPct()}
		})
}

// LineSizeSweep varies the coherence unit of the real memory systems. The
// z-machine fixes its unit at one word precisely so that "the only
// communication that occurs is due to true sharing" (paper §3); sweeping
// the real systems' line size exposes the false-sharing cost of bigger
// lines against their spatial-locality benefit.
func LineSizeSweep(app string, scale Scale, kind memsys.Kind, base memsys.Params, sizes []int) (*stats.Table, error) {
	return sweep(scale, fmt.Sprintf("Line size sweep: %s on %s", app, kind),
		[]string{"line-bytes", "exec-cycles", "read-miss", "invalidations", "overhead%"},
		vary(app, kind, base, sizes, func(p *memsys.Params, n int) { p.LineSize = n }),
		func(_ int, r *stats.Result) []any {
			return []any{r.ExecTime, r.Counters.ReadMisses, r.Counters.Invalidations, r.OverheadPct()}
		})
}

// OracleSweep contrasts the z-machine's two oracle models: the paper's §3
// simulation (broadcast + per-block counter, worst-case propagation) and
// its §2.2 definition (the producer ships to each consumer, per-consumer
// latency). The perfect oracle is the tighter lower bound; the gap shows
// how much the broadcast approximation costs.
func OracleSweep(scale Scale, p memsys.Params) (*stats.Table, error) {
	broadcast, perfect := p, p
	broadcast.ZOracle, perfect.ZOracle = "broadcast", "perfect"
	return pairs(scale, "z-machine oracle: broadcast counter (§3) vs perfect per-consumer (§2.2)",
		[]string{"app", "broadcast-stall", "perfect-stall", "broadcast-exec", "perfect-exec"},
		cell{kind: memsys.KindZMachine, p: broadcast}, cell{kind: memsys.KindZMachine, p: perfect},
		func(rb, rp *stats.Result) []any {
			return []any{rb.TotalReadStall(), rp.TotalReadStall(), rb.ExecTime, rp.ExecTime}
		})
}
