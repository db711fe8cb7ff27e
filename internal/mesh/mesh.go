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

	// Stats.
	msgs     uint64
	bytes    uint64
	queueing Time // total cycles spent waiting for busy links
	occupied Time // total link-occupancy cycles injected

	// mHops records the routing hop count of each message; the plain stats
	// above are harvested by PublishMetrics at the end of a run.
	mHops *metrics.Histogram
}

// HopBuckets are the inclusive upper bounds of the mesh.hops histogram.
// The tail covers many-core meshes: a 32×32 mesh routes up to 62 hops.
var HopBuckets = []uint64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// InstrumentMetrics attaches the per-message hop histogram (implements
// metrics.Instrumentable).
func (n *Net) InstrumentMetrics(r *metrics.Registry) {
	n.mHops = r.Histogram("mesh.hops", HopBuckets)
}

// PublishMetrics harvests the interconnect's aggregate stats into r
// (implements metrics.Publisher). mesh.occupied_cycles over the product of
// link count and run length is the network's link utilization.
func (n *Net) PublishMetrics(r *metrics.Registry) {
	r.Counter("mesh.msgs").Add(n.msgs)
	r.Counter("mesh.bytes").Add(n.bytes)
	r.Counter("mesh.queue_cycles").Add(uint64(n.queueing))
	r.Counter("mesh.occupied_cycles").Add(uint64(n.occupied))
}

// New builds the interconnect described by p.
func New(p memsys.Params) *Net {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	topo, err := NewTopology(p.Topology, p.MeshW, p.MeshH)
	if err != nil {
		panic(err)
	}
	ctrl, data := p.CtrlBytes, p.HeaderBytes+p.LineSize
	return &Net{
		topo:          topo,
		hopLatency:    p.HopLatency,
		cyclesPerByte: p.LinkCyclesPerByte,
		ctrlBytes:     ctrl,
		dataBytes:     data,
		ctrlCycles:    memsys.LinkTransferCycles(p.LinkCyclesPerByte, ctrl),
		dataCycles:    memsys.LinkTransferCycles(p.LinkCyclesPerByte, data),
		busy:          make([]Time, topo.Links()),
	}
}

// route returns the links of the route from src to dst. The slice is valid
// until the next call.
func (n *Net) route(src, dst int) []Run {
	n.runs = n.topo.Route(n.runs[:0], src, dst)
	return n.runs
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
// both endpoints. It allocates; the transfer hot path (Send) uses
// Topology.Route instead.
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
	t, queued, hops := walk(n.busy, n.route(src, dst), n.hopLatency, transfer, start)
	if n.mHops != nil && metrics.Enabled() {
		n.mHops.Observe(uint64(hops))
	}
	n.msgs++
	n.bytes += uint64(bytes)
	n.queueing += queued
	n.occupied += transfer * Time(hops)
	return t
}

// Fan books one round trip from src to each node of dsts, in list order: a
// message of out bytes injected at t, then a reply of back bytes injected
// when the message arrives. Each round trip books exactly what
// Send(d, src, back, Send(src, d, out, t)) would, so a round trip to src
// itself is free. Fan returns the latest reply's arrival, or t if dsts is
// empty. The protocols' coherence fan-outs (an update or invalidation to
// every sharer, each acked to the home) make one Fan call each, and Fan
// updates the statistics once per call.
func (n *Net) Fan(src int, dsts []int, out, back int, t Time) Time {
	outT, backT := n.transfer(out), n.transfer(back)
	observe := n.mHops != nil && metrics.Enabled()
	busy, hop := n.busy, n.hopLatency
	latest := t
	var trips uint64
	var queued Time
	var outHops, backHops int32
	for _, d := range dsts {
		if d == src {
			continue
		}
		at, q1, h1 := walk(busy, n.route(src, d), hop, outT, t)
		r, q2, h2 := walk(busy, n.route(d, src), hop, backT, at)
		if observe {
			n.mHops.Observe(uint64(h1))
			n.mHops.Observe(uint64(h2))
		}
		latest = max(latest, r)
		queued += q1 + q2
		outHops += h1
		backHops += h2
		trips++
	}
	n.msgs += 2 * trips
	n.bytes += trips * uint64(out+back)
	n.queueing += queued
	n.occupied += outT*Time(outHops) + backT*Time(backHops)
	return latest
}

// walk books the links of one message's route, given as runs of link ids,
// for a message that occupies each link for transfer cycles from its
// injection at start. It returns the arrival time, the cycles the message
// queued and its hop count, and leaves the statistics to its caller. It is
// the link model Send and Fan share: each link's busy-until timestamp
// delays the message until the link's last booking ends, and is then moved
// past this message's transfer.
func walk(busy []Time, runs []Run, hop, transfer, start Time) (t, queued Time, hops int32) {
	t = start
	for _, r := range runs {
		l := r.First
		for k := r.Len; k > 0; k-- {
			begin := t + hop
			if b := busy[l]; b > begin {
				queued += b - begin
				begin = b
			}
			t = begin + transfer
			busy[l] = t
			l += r.Stride
		}
		hops += r.Len
	}
	return t, queued, hops
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
