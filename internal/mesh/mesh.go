// Package mesh models the CC-NUMA interconnect of the paper's simulated
// machine: a 2-D mesh with dimension-order (XY) routing, a configurable link
// bandwidth (the paper uses 1.6 CPU cycles per byte) and per-link
// contention. Messages occupy each link on their path for size-proportional
// time; a message booked later queues behind an earlier one on a shared
// link.
//
// Each link is a busy-until timestamp, and a message books every link of
// its route when it is injected. The kernel runs traps in nondecreasing
// virtual time, but a protocol transaction books its later legs (replies,
// acks, a fan-out's messages) at once, so links serve messages in booking
// order, not in the order they reach the link. That is first come, first
// served only at a route's first hop: a message that reaches a downstream
// link first still waits behind a booking that begins later, even while
// the link is idle. ROADMAP's "Links that wait only while busy" measures
// this and plans its replacement.
//
// Booking a hop is one step with no branch on the data, book: the transfer
// begins at the later of the message's ready time and the link's
// busy-until time. A message's queueing is its arrival less its
// uncontended latency, so a walk sums no per-hop wait.
//
// A network of at most 64 nodes tabulates every route on its first message,
// as a flat list of link ids, so a message walks its list in one loop and
// routes nothing. A larger network, where the table would cost megabytes,
// asks its Topology for each message's route as a few strided runs of link
// ids. The table is built from those runs, so both walks book the same
// links in the same order.
package mesh

import (
	"fmt"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

// Time aliases the kernel's virtual time.
type Time = memsys.Time

// Net is the interconnect between the machine's nodes: a routing topology
// (mesh by default — the paper's network) plus link bandwidth, per-hop
// latency, and per-link contention.
type Net struct {
	topo Topology

	// The link cost, copied out of memsys.Params so that Send does not copy
	// a whole Params per message. ctrlCycles and dataCycles are the
	// per-link transfer cycles of a control message (ctrlBytes) and a data
	// message (dataBytes), the two sizes the protocols send; any other size
	// is priced on demand.
	hopLatency             Time
	cyclesPerByte          float64
	ctrlBytes, dataBytes   int
	ctrlCycles, dataCycles Time

	// busy[l] is the time at which link l (a Topology link id) becomes
	// free. runs holds the route of the message being booked; it is reused
	// across messages under the same serialization as busy.
	busy []Time
	runs []Run

	// On a network of at most tableNodes nodes, links and at tabulate
	// every route on the first message: the route from s to d is
	// links[at[s*nodes+d]:at[s*nodes+d+1]]. Both stay nil above the cutoff.
	nodes int
	links []int32
	at    []int32

	// Stats, harvested by PublishMetrics at the end of a run.
	msgs     uint64
	bytes    uint64
	queueing Time // total cycles spent waiting for busy links
	occupied Time // total link-occupancy cycles injected
	// hopCounts[h] counts the messages routed over h hops, for mesh.hops. A
	// route never revisits a node, so h < nodes. Nil unless metrics were on
	// when the network was built.
	hopCounts []uint64
}

// HopBuckets are the inclusive upper bounds of the mesh.hops histogram.
// The tail covers many-core meshes: a 32×32 mesh routes up to 62 hops.
var HopBuckets = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// PublishMetrics harvests the interconnect's aggregate stats and hop counts
// into r (implements metrics.Publisher). mesh.occupied_cycles over the
// product of link count and run length is the network's link utilization.
func (n *Net) PublishMetrics(r *metrics.Registry) {
	r.Counter("mesh.msgs").Add(n.msgs)
	r.Counter("mesh.bytes").Add(n.bytes)
	r.Counter("mesh.queue_cycles").Add(uint64(n.queueing))
	r.Counter("mesh.occupied_cycles").Add(uint64(n.occupied))
	h := r.Histogram("mesh.hops", HopBuckets)
	for v, c := range n.hopCounts {
		h.ObserveN(uint64(v), c)
	}
}

// New builds the interconnect described by p. If metrics are on, it also
// counts each message's hops for PublishMetrics.
func New(p memsys.Params) *Net {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	topo, err := NewTopology(p.Topology, p.MeshW, p.MeshH)
	if err != nil {
		panic(err)
	}
	ctrl, data := p.CtrlBytes, p.HeaderBytes+p.LineSize
	n := &Net{
		topo:          topo,
		hopLatency:    p.HopLatency,
		cyclesPerByte: p.LinkCyclesPerByte,
		ctrlBytes:     ctrl,
		dataBytes:     data,
		ctrlCycles:    memsys.LinkTransferCycles(p.LinkCyclesPerByte, ctrl),
		dataCycles:    memsys.LinkTransferCycles(p.LinkCyclesPerByte, data),
		busy:          make([]Time, topo.Links()),
		nodes:         topo.Nodes(),
	}
	if metrics.Enabled() {
		n.hopCounts = make([]uint64, n.nodes)
	}
	return n
}

// tableNodes is the largest network whose routes a Net tabulates. At 64
// nodes the table holds 4,096 routes in about 100 KiB. At 256 it takes
// 2.9 MiB and did not speed up zbench's manycore workload (DESIGN.md §10);
// at 1024 it would need about 90 MB. Larger networks route each message
// with Topology.Route.
const tableNodes = 64

// route returns the links of the route from src to dst. The slice is valid
// until the next call.
func (n *Net) route(src, dst int) []Run {
	n.runs = n.topo.Route(n.runs[:0], src, dst)
	return n.runs
}

// tabulate builds the route table: links holds every route's link ids,
// route after route in (src, dst) order, and at[i] where route i begins.
// Hops sizes both slices exactly, so the build makes one allocation per
// slice and none per route.
func (n *Net) tabulate() {
	at := make([]int32, n.nodes*n.nodes+1)
	for i := range n.nodes * n.nodes {
		at[i+1] = at[i] + int32(n.topo.Hops(i/n.nodes, i%n.nodes))
	}
	links := make([]int32, 0, at[len(at)-1])
	for i := range n.nodes * n.nodes {
		for _, r := range n.route(i/n.nodes, i%n.nodes) {
			for k, l := int32(0), r.First; k < r.Len; k, l = k+1, l+r.Stride {
				links = append(links, l)
			}
		}
	}
	n.links, n.at = links, at
}

// transfer returns the per-link occupancy of a message of the given size.
func (n *Net) transfer(bytes int) Time {
	switch bytes {
	case n.ctrlBytes:
		return n.ctrlCycles
	case n.dataBytes:
		return n.dataCycles
	}
	return memsys.LinkTransferCycles(n.cyclesPerByte, bytes)
}

// Topology returns the routing topology in use.
func (n *Net) Topology() Topology { return n.topo }

// Hops returns the routing hop count between two nodes.
func (n *Net) Hops(src, dst int) int { return n.topo.Hops(src, dst) }

// Path returns the sequence of nodes visited from src to dst, inclusive of
// both endpoints. It allocates; Send walks the route table or
// Topology.Route's runs instead.
func (n *Net) Path(src, dst int) []int { return Path(n.topo, src, dst) }

// Send injects a message of the given size from src to dst at time start and
// returns its arrival time, modelling store-and-forward transfer with
// per-link busy-until contention. A message to the local node arrives
// immediately.
func (n *Net) Send(src, dst, bytes int, start Time) Time {
	if src == dst {
		return start
	}
	transfer := n.transfer(bytes)
	t, hops := n.walk(src, dst, transfer, start)
	if n.hopCounts != nil {
		n.hopCounts[hops]++
	}
	n.msgs++
	n.bytes += uint64(bytes)
	n.queueing += t - start - Time(hops)*(n.hopLatency+transfer)
	n.occupied += transfer * Time(hops)
	return t
}

// Fan books one round trip from src to each node of dsts, in list order: a
// message of out bytes injected at t, then a reply of back bytes injected
// when the message arrives. Each round trip books exactly what
// Send(d, src, back, Send(src, d, out, t)) would, so a round trip to src
// itself is free. Fan returns the latest reply's arrival, or t if it booked
// none, and the number of round trips it booked. The protocols' coherence
// fan-outs (an update or invalidation to every sharer, each acked to the
// home) make one Fan call each, and Fan updates the statistics once per
// call.
func (n *Net) Fan(src int, dsts []int, out, back int, t Time) (latest Time, trips int) {
	outT, backT := n.transfer(out), n.transfer(back)
	latest = t
	var spent Time // the round trips' summed durations
	var outHops, backHops int32
	for _, d := range dsts {
		if d == src {
			continue
		}
		at, h1 := n.walk(src, d, outT, t)
		r, h2 := n.walk(d, src, backT, at)
		if n.hopCounts != nil {
			n.hopCounts[h1]++
			n.hopCounts[h2]++
		}
		latest = max(latest, r)
		spent += r - t
		outHops += h1
		backHops += h2
		trips++
	}
	occupied := outT*Time(outHops) + backT*Time(backHops)
	n.msgs += 2 * uint64(trips)
	n.bytes += uint64(trips) * uint64(out+back)
	n.queueing += spent - Time(outHops+backHops)*n.hopLatency - occupied
	n.occupied += occupied
	return latest, trips
}

// walk books the links of the route from src to dst for a message that
// occupies each link for transfer cycles from its injection at start. It
// returns the arrival time and the hop count, and leaves the statistics to
// its caller: each hop took hop + transfer cycles plus its wait for the
// link, so the message queued for its arrival less start less hops times
// that. It is the one walk Send and Fan share: a tabulated route is one
// flat loop over its link ids; above tableNodes the route comes from
// Topology.Route as strided runs.
func (n *Net) walk(src, dst int, transfer, start Time) (Time, int32) {
	busy, hop, t := n.busy, n.hopLatency, start
	if n.at == nil && n.nodes > tableNodes {
		for _, r := range n.route(src, dst) {
			for k, l := r.Len, r.First; k > 0; k, l = k-1, l+r.Stride {
				t = book(busy, l, hop, transfer, t)
			}
		}
		// Counted apart from the booking, which needs every register.
		var hops int32
		for _, r := range n.runs {
			hops += r.Len
		}
		return t, hops
	}
	if n.at == nil {
		n.tabulate()
	}
	i := src*n.nodes + dst
	links := n.links[n.at[i]:n.at[i+1]]
	for _, l := range links {
		t = book(busy, l, hop, transfer, t)
	}
	return t, int32(len(links))
}

// book books link l for a message that reaches it at t and returns when the
// message has crossed it. It is the link model of MODEL.md §2: the
// transfer begins at max(t+hop, busy[l]), and the link stays busy until it
// ends. The max keeps the step free of a branch on the data: in the
// coherence fan-outs, whether a hop waits changes on up to 39% of
// consecutive hops (DESIGN.md §10), so such a branch would mispredict in
// the simulator's hottest loop. A hop's wait is its crossing time less hop
// and transfer, so walk takes a message's queueing from its arrival
// instead of summing it hop by hop.
func book(busy []Time, l int32, hop, transfer, t Time) Time {
	t = max(t+hop, busy[l]) + transfer
	busy[l] = t
	return t
}

// UncontendedLatency returns the latency a message would see on an idle
// network — the z-machine's propagation delay L, determined only by the
// link bandwidth (paper §2.2: no contention in the z-machine).
func (n *Net) UncontendedLatency(src, dst, bytes int) Time {
	return Time(n.Hops(src, dst)) * (n.hopLatency + n.transfer(bytes))
}

// MaxUncontendedLatency returns the worst-case uncontended latency from src
// to any node — the propagation bound used by the z-machine's availability
// counter when the oracle ships a datum to every consumer.
func (n *Net) MaxUncontendedLatency(src, bytes int) Time {
	var max int
	for d := 0; d < n.topo.Nodes(); d++ {
		if h := n.Hops(src, d); h > max {
			max = h
		}
	}
	return Time(max) * (n.hopLatency + n.transfer(bytes))
}

// Messages returns the number of messages injected.
func (n *Net) Messages() uint64 { return n.msgs }

// Bytes returns the total payload bytes injected.
func (n *Net) Bytes() uint64 { return n.bytes }

// QueueingCycles returns the total contention (waiting-for-link) cycles.
func (n *Net) QueueingCycles() Time { return n.queueing }

// OccupiedCycles returns total link-occupancy cycles injected.
func (n *Net) OccupiedCycles() Time { return n.occupied }

func (n *Net) String() string {
	return fmt.Sprintf("%s (%d nodes): msgs=%d bytes=%d queueing=%d",
		n.topo.Name(), n.topo.Nodes(), n.msgs, n.bytes, n.queueing)
}
