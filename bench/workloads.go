package main

import (
	"fmt"
	"math/rand"
	"runtime"

	"zsim/internal/apps"
	"zsim/internal/apps/barneshut"
	"zsim/internal/apps/intsort"
	"zsim/internal/apps/maxflow"
	"zsim/internal/memsys"
	"zsim/internal/workload"
)

// cell is one simulation of a workload: an application at a scale on a
// memory system with a parameter block. Every pass builds it from scratch.
type cell struct {
	app     string
	scale   workload.Scale
	kind    memsys.Kind
	params  memsys.Params
	variant string // names a non-default Params block in the cell id
}

// id names the cell uniquely across all workloads; the golden digests are
// keyed by it.
func (c cell) id() string {
	s := fmt.Sprintf("%s/%s/%s/P%d", c.app, c.scale, c.kind, c.params.Procs)
	if c.variant != "" {
		s += "/" + c.variant
	}
	return s
}

// spec is one workload: a fixed cell list and the number of cells that run
// at once on runner.Grid.
type spec struct {
	name    string
	workers int
	cells   []cell
}

// parallelism caps the workload's workers at the host's usable CPUs, so a
// one-CPU host runs every workload serially rather than oversubscribed.
func (w *spec) parallelism() int {
	return max(1, min(w.workers, runtime.GOMAXPROCS(0)))
}

// workloads returns the benchmark's workloads in reporting order. The cell
// lists are fixed: a change to one is a change to the benchmark.
func workloads() []*spec {
	return []*spec{paperGrid(), handoff(), coherence(), manycore()}
}

func lookupWorkload(name string) (*spec, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

// paperGrid is the regeneration users run: the four paper applications on
// all eight memory systems at small scale, plus the ablation corners that
// alone reach eviction, Dir-i, multithreading and the bus.
func paperGrid() *spec {
	w := &spec{
		name:    "paper-grid",
		workers: 2,
	}
	base := memsys.Default(16)
	for _, app := range workload.AppNames() {
		for _, k := range memsys.Kinds() {
			w.cells = append(w.cells, cell{app: app, scale: workload.ScaleSmall, kind: k, params: base})
		}
	}
	finite := base
	finite.FiniteCache, finite.CacheLines, finite.CacheAssoc = true, 16, 4
	dirI := base
	dirI.DirPointers = 2
	bus := base
	bus.Topology = "bus"
	w.cells = append(w.cells,
		cell{app: "nbody", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: finite, variant: "finite16x4"},
		cell{app: "nbody", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: dirI, variant: "dir2"},
		cell{app: "maxflow", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: memsys.DefaultMT(16, 4), variant: "mt4"},
		cell{app: "maxflow", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: bus, variant: "bus"},
	)
	return w
}

// handoff is kernel-bound: almost every trap of IS on the z-machine and the
// PRAM is a full goroutine handoff, and protocol and mesh work barely run.
func handoff() *spec {
	p := memsys.Default(64)
	return &spec{
		name:    "handoff",
		workers: 1,
		cells: []cell{
			{app: "is", scale: workload.ScalePaper, kind: memsys.KindZMachine, params: p},
			{app: "is", scale: workload.ScalePaper, kind: memsys.KindPRAM, params: p},
		},
	}
}

// coherence is protocol-bound and covers both protocol families: Cholesky
// on write-invalidate and Maxflow's update fan-out on write-update.
func coherence() *spec {
	p := memsys.Default(64)
	return &spec{
		name:    "coherence",
		workers: 1,
		cells: []cell{
			{app: "cholesky", scale: workload.ScalePaper, kind: memsys.KindRCInv, params: p},
			{app: "maxflow", scale: workload.ScalePaper, kind: memsys.KindRCUpd, params: p},
		},
	}
}

// manycore is a few huge machines: per-processor cache and directory pages
// make it allocation-bound, with deep run queues and wide presence sets.
func manycore() *spec {
	p := memsys.Default(1024)
	return &spec{
		name:    "manycore",
		workers: 1,
		cells: []cell{
			{app: "cholesky", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: p},
			{app: "maxflow", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: p},
			{app: "nbody", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: p},
			{app: "is", scale: workload.ScaleSmall, kind: memsys.KindRCInv, params: memsys.Default(256)},
		},
	}
}

// newApp builds an application whose inputs derive from seed. At seed 0
// every input equals workload.NewApp's, which is what the golden digests
// pin; other seeds are held-out inputs checked by Verify and pass-to-pass
// determinism. IS and Barnes-Hut offset their generator seeds: the work of
// a key set or body set barely depends on the draw. Maxflow keeps its
// network and relabels the vertices instead, because push-relabel work on
// a freshly drawn network varies by up to 100x between seeds, which would
// make the benchmark measure the draw rather than the simulator; a
// relabeled network moves the trap count by about 5%. Cholesky has no
// generator.
func newApp(name string, scale workload.Scale, seed int64) (apps.App, error) {
	small := scale == workload.ScaleSmall
	switch name {
	case "is":
		cfg := intsort.Paper()
		if small {
			cfg = intsort.Small()
		}
		cfg.Seed += seed
		return intsort.New(cfg), nil
	case "maxflow":
		cfg := maxflow.Paper()
		if small {
			cfg = maxflow.Small()
		}
		mf := maxflow.New(cfg)
		if seed != 0 {
			relabel(mf.Graph(), rand.New(rand.NewSource(seed)))
		}
		return mf, nil
	case "nbody":
		cfg := barneshut.Paper()
		if small {
			cfg = barneshut.Small()
		}
		cfg.Seed += seed
		return barneshut.New(cfg), nil
	}
	return workload.NewApp(name, scale)
}

// relabel renames g's vertices by a random permutation that fixes the
// source and the sink (the application finds them at 0 and N-1) and
// rebuilds the adjacency lists. The result is isomorphic to g, with the same
// maximum flow.
func relabel(g *maxflow.Graph, rng *rand.Rand) {
	n := g.N
	perm := make([]int, n) // perm[0] stays 0
	perm[n-1] = n - 1
	for i, p := range rng.Perm(n - 2) {
		perm[i+1] = p + 1
	}
	deg := make([]int, n)
	for a := range g.Head {
		g.Head[a], g.Tail[a] = perm[g.Head[a]], perm[g.Tail[a]]
		deg[g.Tail[a]]++
	}
	for v := 0; v < n; v++ {
		g.AdjStart[v+1] = g.AdjStart[v] + deg[v]
	}
	next := append([]int(nil), g.AdjStart[:n]...)
	for a, u := range g.Tail {
		g.AdjArcs[next[u]] = a
		next[u]++
	}
}
