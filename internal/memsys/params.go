package memsys

import (
	"fmt"
	"math"
)

// Params is the architectural parameter block. Defaults reproduce the
// configuration of the paper's §5 evaluation: a 16-node CC-NUMA with a 4×4
// mesh, 32-byte cache lines (4-byte on the z-machine), a link latency of
// 1.6 CPU cycles per byte, a 4-entry store buffer, a 1-cache-block merge
// buffer, and infinite caches.
type Params struct {
	Procs int // number of simulated execution streams (threads)

	// HWThreads is the number of hardware threads multiplexed onto each
	// NUMA node's core (the paper's §7 "multithreading" open issue; 1 =
	// the paper's configuration, one stream per node). The machine has
	// Procs/HWThreads nodes; threads of a node share its core, cache,
	// store buffer, and merge buffer, and a thread's memory stalls overlap
	// with its siblings' computation (switch-on-miss latency tolerance).
	HWThreads int

	MeshW, MeshH int // interconnect dimensions; MeshW*MeshH must equal Nodes()

	// Topology selects the interconnect: "mesh" (the paper's network,
	// default), "torus", "hypercube", "xbar", "bus", or "hier" (a
	// hierarchical cluster-of-meshes: 4×4 paper meshes tiled in a
	// higher-level mesh, routed through per-cluster gateways; the node
	// count must be a multiple of HierClusterNodes).
	Topology string

	LineSize  int // coherence unit of the real memory systems, bytes
	ZLineSize int // coherence unit of the z-machine, bytes (4: true sharing only)

	// ZOracle selects how the z-machine models the producer's oracle.
	// "broadcast" (default, the paper's simulation §3): updates go to all
	// processors and a per-block counter clears after the worst-case
	// propagation latency. "perfect" (the paper's §2.2 definition): the
	// producer ships directly to each consumer, so a reader waits only its
	// own distance-dependent latency from the writer.
	ZOracle string

	// LinkCyclesPerByte is the per-link transfer cost in CPU cycles per
	// byte (the paper uses 1.6).
	LinkCyclesPerByte float64
	HopLatency        Time // fixed switch/router traversal cost per hop
	DirLatency        Time // directory lookup/occupancy per request
	MemLatency        Time // DRAM access on a directory data fetch
	CacheHitLatency   Time // charged on every shared access (hit time)

	CtrlBytes   int // size of a control message (request, inval, ack)
	HeaderBytes int // header prepended to data messages

	StoreBufEntries int // store (write) buffer entries per processor
	MergeBufLines   int // merge buffer capacity in cache lines (update systems)

	// CompThreshold is the competitive protocol's count of updates without
	// a local read before a copy self-invalidates, at most math.MaxUint16:
	// a copy counts its unread updates in 16 bits (cache.Line.Updates).
	CompThreshold int

	// Finite-cache extension (paper §7 "open issues").
	FiniteCache bool
	CacheLines  int // total lines per processor when finite
	CacheAssoc  int // set associativity when finite

	// PrefetchDegree enables sequential prefetch-on-miss in RCinv
	// (architectural implication of §6); 0 disables.
	PrefetchDegree int

	// DirPointers limits the directory to this many sharer pointers per
	// line (a Dir-i scheme): adding a sharer beyond the limit evicts
	// (invalidates) an existing one. 0 means the paper's full-map
	// directories.
	DirPointers int

	// Synchronization costs (process-coordination, inherent per §2.1).
	LockLatency    Time // lock/unlock manipulation cost at the home node
	BarrierLatency Time // barrier arrival bookkeeping cost

	// FaultInjection seeds a deliberate protocol bug so the conformance
	// checker (internal/check) can be validated against a known defect.
	// Empty (the default) injects nothing. "drop-update" makes the
	// update-based systems silently skip refreshing one sharer's copy per
	// fan-out, leaving a stale cached value; "drop-inval" makes the
	// write-invalidate systems skip invalidating one sharer on an ownership
	// acquisition. Never set outside checker tests.
	FaultInjection string
}

// Default returns the paper's configuration for p processors.
func Default(p int) Params {
	w, h := meshShape(p)
	return Params{
		Procs:             p,
		HWThreads:         1,
		MeshW:             w,
		MeshH:             h,
		Topology:          "mesh",
		ZOracle:           "broadcast",
		LineSize:          32,
		ZLineSize:         4,
		LinkCyclesPerByte: 1.6,
		HopLatency:        2,
		DirLatency:        10,
		MemLatency:        15,
		CacheHitLatency:   1,
		CtrlBytes:         8,
		HeaderBytes:       8,
		StoreBufEntries:   4,
		MergeBufLines:     1,
		CompThreshold:     4,
		LockLatency:       4,
		BarrierLatency:    4,
	}
}

// meshShape picks the most square w×h factorization of p, preferring wider
// meshes (w ≥ h).
func meshShape(p int) (w, h int) {
	best := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			best = d
		}
	}
	return p / best, best
}

// DefaultMT returns the paper's configuration with `streams` execution
// streams multiplexed `threads` per node (the multithreading extension).
func DefaultMT(streams, threads int) Params { return Default(streams).WithThreads(streams, threads) }

// WithThreads returns a copy of the params resized to `streams` execution
// streams multiplexed `threads` per node, with the mesh reshaped to the node
// count, keeping every other parameter (topology, latencies, buffer sizes,
// fault injection) as configured. It panics when threads does not divide
// streams.
func (pa Params) WithThreads(streams, threads int) Params {
	if threads <= 0 || streams%threads != 0 {
		panic(fmt.Sprintf("memsys: %d streams not divisible into %d hardware threads per node", streams, threads))
	}
	pa.Procs, pa.HWThreads = streams, threads
	pa.MeshW, pa.MeshH = meshShape(streams / threads)
	return pa
}

// WithProcs returns a copy of the params resized to p execution streams with
// one hardware thread per node and a reshaped mesh (WithThreads).
func (pa Params) WithProcs(p int) Params { return pa.WithThreads(p, 1) }

// Nodes returns the number of NUMA nodes (processor cores).
func (pa Params) Nodes() int { return pa.Procs / pa.HWThreads }

// Node maps an execution stream to its NUMA node.
func (pa Params) Node(p int) int { return p / pa.HWThreads }

// Validate reports configuration errors.
func (pa Params) Validate() error {
	switch {
	case pa.Procs <= 0:
		return fmt.Errorf("memsys: Procs = %d, need > 0", pa.Procs)
	case pa.Procs > MaxProcs:
		topo := pa.Topology
		if topo == "" {
			topo = "mesh"
		}
		return fmt.Errorf("memsys: Procs = %d exceeds the %d-processor capacity of the %q topology (stock topologies are sized for at most %d nodes and presence sets for %d words of 64 processors)", pa.Procs, MaxProcs, topo, MaxProcs, MaxProcs/64)
	case pa.HWThreads <= 0 || pa.Procs%pa.HWThreads != 0:
		return fmt.Errorf("memsys: HWThreads = %d must divide Procs = %d", pa.HWThreads, pa.Procs)
	case pa.MeshW*pa.MeshH != pa.Procs/pa.HWThreads:
		return fmt.Errorf("memsys: mesh %dx%d does not cover %d nodes", pa.MeshW, pa.MeshH, pa.Procs/pa.HWThreads)
	case pa.LineSize <= 0 || pa.LineSize&(pa.LineSize-1) != 0:
		return fmt.Errorf("memsys: LineSize = %d, need a power of two", pa.LineSize)
	case pa.ZLineSize <= 0 || pa.ZLineSize&(pa.ZLineSize-1) != 0:
		return fmt.Errorf("memsys: ZLineSize = %d, need a power of two", pa.ZLineSize)
	case pa.LinkCyclesPerByte <= 0:
		return fmt.Errorf("memsys: LinkCyclesPerByte = %g, need > 0", pa.LinkCyclesPerByte)
	case pa.StoreBufEntries <= 0:
		return fmt.Errorf("memsys: StoreBufEntries = %d, need > 0", pa.StoreBufEntries)
	case pa.MergeBufLines <= 0:
		return fmt.Errorf("memsys: MergeBufLines = %d, need > 0", pa.MergeBufLines)
	case pa.CompThreshold <= 0 || pa.CompThreshold > math.MaxUint16:
		return fmt.Errorf("memsys: CompThreshold = %d, need 1..%d", pa.CompThreshold, math.MaxUint16)
	case pa.FiniteCache && (pa.CacheLines <= 0 || pa.CacheAssoc <= 0):
		return fmt.Errorf("memsys: finite cache needs CacheLines and CacheAssoc > 0")
	case pa.FiniteCache && pa.CacheLines%pa.CacheAssoc != 0:
		return fmt.Errorf("memsys: CacheLines %% CacheAssoc != 0")
	case pa.DirPointers < 0:
		return fmt.Errorf("memsys: DirPointers = %d, need >= 0", pa.DirPointers)
	}
	switch pa.ZOracle {
	case "", "broadcast", "perfect":
	default:
		return fmt.Errorf("memsys: unknown ZOracle %q", pa.ZOracle)
	}
	switch pa.FaultInjection {
	case "", "drop-update", "drop-inval":
	default:
		return fmt.Errorf("memsys: unknown FaultInjection %q", pa.FaultInjection)
	}
	switch pa.Topology {
	case "", "mesh", "torus", "xbar", "bus":
	case "hypercube":
		n := pa.Nodes()
		if n&(n-1) != 0 {
			return fmt.Errorf("memsys: hypercube needs a power-of-two node count, got %d", n)
		}
	case "hier":
		n := pa.Nodes()
		if n%HierClusterNodes != 0 {
			return fmt.Errorf("memsys: hier topology needs a multiple of %d nodes (4x4 clusters), got %d", HierClusterNodes, n)
		}
	default:
		return fmt.Errorf("memsys: unknown topology %q", pa.Topology)
	}
	return nil
}

// Home returns the NUMA node owning the line containing addr, for the given
// coherence line size: lines are interleaved round-robin across nodes.
func (pa Params) Home(addr Addr, lineSize int) int {
	return int(Line(addr, lineSize) % Addr(pa.Nodes()))
}

// TransferCycles returns the per-link occupancy of a message of the given
// size in bytes, rounded up to a whole cycle.
func (pa Params) TransferCycles(bytes int) Time {
	return LinkTransferCycles(pa.LinkCyclesPerByte, bytes)
}

// LinkTransferCycles returns the occupancy of a message of the given size
// in bytes on a link costing cyclesPerByte, rounded up to a whole cycle and
// at least one.
func LinkTransferCycles(cyclesPerByte float64, bytes int) Time {
	c := cyclesPerByte * float64(bytes)
	t := Time(c)
	if float64(t) < c {
		t++
	}
	if t == 0 {
		t = 1
	}
	return t
}
