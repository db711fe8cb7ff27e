package mesh

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"zsim/internal/memsys"
	"zsim/internal/metrics"
)

func testNet(procs int) *Net {
	return New(memsys.Default(procs))
}

func TestHopsSelf(t *testing.T) {
	n := testNet(16)
	for i := 0; i < 16; i++ {
		if h := n.Hops(i, i); h != 0 {
			t.Fatalf("Hops(%d,%d) = %d, want 0", i, i, h)
		}
	}
}

func TestHopsKnown(t *testing.T) {
	n := testNet(16) // 4x4: node 0 at (0,0), node 15 at (3,3)
	cases := []struct{ src, dst, want int }{
		{0, 1, 1}, {0, 4, 1}, {0, 5, 2}, {0, 15, 6}, {3, 12, 6}, {5, 10, 2},
	}
	for _, c := range cases {
		if h := n.Hops(c.src, c.dst); h != c.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.src, c.dst, h, c.want)
		}
	}
}

func TestPathEndpointsAndLength(t *testing.T) {
	n := testNet(16)
	for src := 0; src < 16; src++ {
		for dst := 0; dst < 16; dst++ {
			p := n.Path(src, dst)
			if p[0] != src || p[len(p)-1] != dst {
				t.Fatalf("Path(%d,%d) endpoints wrong: %v", src, dst, p)
			}
			if len(p)-1 != n.Hops(src, dst) {
				t.Fatalf("Path(%d,%d) length %d != hops %d", src, dst, len(p)-1, n.Hops(src, dst))
			}
		}
	}
}

// Property: every consecutive pair in a path is mesh-adjacent.
func TestPathAdjacencyProperty(t *testing.T) {
	n := testNet(16)
	f := func(s, d uint8) bool {
		src, dst := int(s)%16, int(d)%16
		p := n.Path(src, dst)
		for i := 0; i+1 < len(p); i++ {
			if n.Hops(p[i], p[i+1]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSendLocalFree(t *testing.T) {
	n := testNet(16)
	if got := n.Send(3, 3, 100, 42); got != 42 {
		t.Fatalf("local send arrival = %d, want 42", got)
	}
	if n.Messages() != 0 {
		t.Fatal("local send should not count as a network message")
	}
}

func TestSendUncontendedMatchesFormula(t *testing.T) {
	n := testNet(16)
	// One hop, 8 bytes at 1.6 cyc/B => transfer ceil(12.8)=13, hop latency 2.
	got := n.Send(0, 1, 8, 0)
	want := Time(2 + 13)
	if got != want {
		t.Fatalf("arrival = %d, want %d", got, want)
	}
	if l := n.UncontendedLatency(2, 3, 8); l != want {
		t.Fatalf("uncontended = %d, want %d", l, want)
	}
}

func TestSendMultiHop(t *testing.T) {
	n := testNet(16)
	got := n.Send(0, 15, 8, 0) // 6 hops
	want := Time(6 * (2 + 13))
	if got != want {
		t.Fatalf("arrival = %d, want %d", got, want)
	}
}

func TestContentionQueues(t *testing.T) {
	n := testNet(16)
	a := n.Send(0, 1, 8, 0)
	b := n.Send(0, 1, 8, 0) // same link, same start: must queue behind a
	if b <= a {
		t.Fatalf("second message (%d) should arrive after first (%d)", b, a)
	}
	if n.QueueingCycles() == 0 {
		t.Fatal("expected nonzero queueing cycles")
	}
	// The second transfer begins when the first departs.
	if want := a + 13; b != want {
		t.Fatalf("second arrival = %d, want %d", b, want)
	}
}

func TestDisjointPathsNoContention(t *testing.T) {
	n := testNet(16)
	n.Send(0, 1, 8, 0)
	n.Send(4, 5, 8, 0) // disjoint row
	if q := n.QueueingCycles(); q != 0 {
		t.Fatalf("queueing = %d on disjoint paths, want 0", q)
	}
}

// Property: arrival is never before the uncontended latency, and equals it
// on an idle network.
func TestSendLowerBoundProperty(t *testing.T) {
	f := func(s, d uint8, sz uint8) bool {
		src, dst := int(s)%16, int(d)%16
		bytes := int(sz)%64 + 1
		n := testNet(16)
		lo := n.UncontendedLatency(src, dst, bytes)
		return n.Send(src, dst, bytes, 0) == lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMaxUncontendedLatency(t *testing.T) {
	n := testNet(16)
	got := n.MaxUncontendedLatency(0, 4)
	// Farthest from node 0 is node 15 at 6 hops; 4 bytes => ceil(6.4)=7.
	want := Time(6 * (2 + 7))
	if got != want {
		t.Fatalf("max latency = %d, want %d", got, want)
	}
}

func TestMeshShapes(t *testing.T) {
	for _, procs := range []int{1, 2, 4, 8, 16, 32} {
		n := testNet(procs)
		// All-pairs routing must work for any supported shape.
		for s := 0; s < procs; s++ {
			for d := 0; d < procs; d++ {
				_ = n.Path(s, d)
			}
		}
	}
}

func TestTransferCyclesRounding(t *testing.T) {
	p := memsys.Default(16)
	cases := []struct {
		bytes int
		want  Time
	}{{1, 2}, {4, 7}, {8, 13}, {32, 52}, {40, 64}}
	for _, c := range cases {
		if got := p.TransferCycles(c.bytes); got != c.want {
			t.Errorf("TransferCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestStatsAccumulate(t *testing.T) {
	n := testNet(16)
	n.Send(0, 15, 40, 0)
	if n.Messages() != 1 || n.Bytes() != 40 {
		t.Fatalf("msgs=%d bytes=%d, want 1, 40", n.Messages(), n.Bytes())
	}
	if n.OccupiedCycles() != 6*64 {
		t.Fatalf("occupied = %d, want %d", n.OccupiedCycles(), 6*64)
	}
}

// BenchmarkSend times one control message between random distinct nodes on
// the 4×4 mesh, the 8×8 mesh (the shape of zbench's coherence workload) and
// the 32×32 mesh (its manycore workload's). Each message starts when the
// last one arrived, so none of these queues. The 4×4 and 8×8 meshes walk
// tabulated routes and the 32×32 mesh strided runs; every network sends one
// message before the timer starts, so the table's build is not timed.
//
// fanout/8x8 is one write-update transaction of the kind that dominates
// coherence's traffic (upd.updateTxn), booked with one Fan call as the
// protocol does: a home sends a data message to every other node of the
// mesh at the same start time and each node acks with a control message,
// so the fan-out and the acks contend on the links around the home.
// fanout/32x32 is the same transaction on the untabulated mesh. Both
// saturate the links: nearly every hop waits. fanout-mixed/8x8 is closer to
// a simulation's traffic, where whether a hop waits changes from hop to
// hop: fan-outs from random homes to seeded random sharer subsets, each
// starting a random gap after the last. Their ns/op is per message.
func BenchmarkSend(b *testing.B) {
	for _, procs := range []int{16, 64, 1024} {
		p := memsys.Default(procs)
		b.Run(fmt.Sprintf("%dx%d", p.MeshW, p.MeshH), func(b *testing.B) {
			n := New(p)
			rng := rand.New(rand.NewSource(1))
			const pairs = 1024 // a power of two: i&(pairs-1) picks a pair
			src, dst := make([]int, pairs), make([]int, pairs)
			for i := range src {
				src[i] = rng.Intn(procs)
				dst[i] = (src[i] + 1 + rng.Intn(procs-1)) % procs
			}
			t := n.Send(src[0], dst[0], p.CtrlBytes, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (pairs - 1)
				t = n.Send(src[j], dst[j], p.CtrlBytes, t)
			}
		})
	}
	for _, procs := range []int{64, 1024} {
		p := memsys.Default(procs)
		b.Run(fmt.Sprintf("fanout/%dx%d", p.MeshW, p.MeshH), func(b *testing.B) {
			n := New(p)
			nodes := p.Nodes()
			data := p.HeaderBytes + p.LineSize
			dsts := make([]int, nodes)
			for i := range dsts {
				dsts[i] = i // Fan skips the home
			}
			t := n.Send(0, 1, p.CtrlBytes, 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i, home := 0, 0; i < b.N; home = (home + 1) & (nodes - 1) {
				t, _ = n.Fan(home, dsts, data, p.CtrlBytes, t)
				i += 2 * (nodes - 1)
			}
		})
	}
	b.Run("fanout-mixed/8x8", func(b *testing.B) {
		p := memsys.Default(64)
		n := New(p)
		nodes, data := p.Nodes(), p.HeaderBytes+p.LineSize
		rng := rand.New(rand.NewSource(1))
		// With these, 17% of hops wait and the outcome flips on 29% of
		// consecutive hops, as on zbench's Maxflow × RCupd cell (17% and
		// 28%). Mean gaps under about 1,000 cycles saturate the links
		// around the homes, and then the queues, not the traffic, set which
		// hops wait.
		const (
			fans  = 256  // a power of two: k&(fans-1) picks a fan-out
			gap   = 4000 // start gaps are uniform in [0, gap) cycles
			share = 8    // a fan-out lists each node with probability k/share, k uniform in [1, share]
		)
		homes, gaps, dsts := make([]int, fans), make([]Time, fans), make([][]int, fans)
		for k := range dsts {
			homes[k] = rng.Intn(nodes)
			gaps[k] = Time(rng.Intn(gap))
			for d, s := 0, 1+rng.Intn(share); d < nodes; d++ {
				if rng.Intn(share) < s {
					dsts[k] = append(dsts[k], d)
				}
			}
		}
		start := n.Send(0, 1, p.CtrlBytes, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i, k := 0, 0; i < b.N; k = (k + 1) & (fans - 1) {
			start += gaps[k]
			_, trips := n.Fan(homes[k], dsts[k], data, p.CtrlBytes, start)
			i += 2*trips + 1 // +1: a fan-out that sends nothing still takes a step
		}
	})
}

// TestFanMatchesSends pins Fan to its definition: each round trip books
// exactly what Send(d, src, back, Send(src, d, out, t)) would, in list
// order, and Fan counts the round trips it booked. Both networks start
// from the same random load; every fan-out is replayed with Send on the
// twin, and the two must agree on each return value, on every link's
// busy-until time and on every statistic.
func TestFanMatchesSends(t *testing.T) {
	defer metrics.Enable(metrics.Enable(true))
	for _, c := range testNetworks() {
		t.Run(c.name, func(t *testing.T) {
			fan, twin := New(c.p), New(c.p)
			nodes := c.p.Nodes()
			data := c.p.HeaderBytes + c.p.LineSize
			rng := rand.New(rand.NewSource(int64(nodes)))
			var t0 Time
			for i := 0; i < 4*nodes; i++ {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				bytes := []int{c.p.CtrlBytes, data}[rng.Intn(2)]
				start := t0 + Time(rng.Intn(200))
				if got, want := fan.Send(src, dst, bytes, start), twin.Send(src, dst, bytes, start); got != want {
					t.Fatalf("loading Send(%d, %d): %d and %d", src, dst, got, want)
				}
				t0 += Time(rng.Intn(20))
			}
			for i := 0; i < 40; i++ {
				home := rng.Intn(nodes)
				var dsts []int
				switch i {
				case 0: // no sharer
				case 1:
					dsts = []int{home}
				default:
					for d := 0; d < nodes; d++ {
						if rng.Intn(4) == 0 || d == home && i%3 == 0 {
							dsts = append(dsts, d)
						}
					}
				}
				out := []int{c.p.CtrlBytes, data}[rng.Intn(2)]
				start := t0 + Time(rng.Intn(200))
				got, trips := fan.Fan(home, dsts, out, c.p.CtrlBytes, start)
				want, wantTrips := start, 0
				for _, d := range dsts {
					if r := twin.Send(d, home, c.p.CtrlBytes, twin.Send(home, d, out, start)); r > want {
						want = r
					}
					if d != home {
						wantTrips++
					}
				}
				if got != want || trips != wantTrips {
					t.Fatalf("fan-out %d from %d to %v: Fan returns %d after %d round trips, Sends %d after %d",
						i, home, dsts, got, trips, want, wantTrips)
				}
				t0 += Time(rng.Intn(100))
			}
			if !reflect.DeepEqual(fan.busy, twin.busy) {
				t.Fatal("Fan and Sends leave different link busy-until times")
			}
			if fan.Messages() != twin.Messages() || fan.Bytes() != twin.Bytes() ||
				fan.QueueingCycles() != twin.QueueingCycles() || fan.OccupiedCycles() != twin.OccupiedCycles() {
				t.Fatalf("stats differ: Fan %v, Sends %v", fan, twin)
			}
			if fan.QueueingCycles() == 0 {
				t.Fatal("the load never queued a message; the test would not see a booking-order difference")
			}
			fanReg, twinReg := metrics.NewRegistry(), metrics.NewRegistry()
			fan.PublishMetrics(fanReg)
			twin.PublishMetrics(twinReg)
			fh, th := fanReg.Snapshot().Histograms["mesh.hops"], twinReg.Snapshot().Histograms["mesh.hops"]
			if fh.Count == 0 || !reflect.DeepEqual(fh, th) {
				t.Fatalf("mesh.hops: Fan %+v, Sends %+v", fh, th)
			}
		})
	}
}

// TestLinkTableMatchesRoute pins the route table to Route, and so, with
// TestRouteMatchesNextHop, to NextHop. After a network's first Send, the
// table is sized exactly and each pair's tabulated links are its Route
// runs expanded: on every topology at 16 and 64 nodes, and on the torus
// shapes whose legs wrap differently (TestRouteMatchesNextHop's).
func TestLinkTableMatchesRoute(t *testing.T) {
	type shape struct {
		topo string
		w, h int
	}
	var shapes []shape
	for _, name := range allTopos() {
		shapes = append(shapes, shape{name, 4, 4}, shape{name, 8, 8})
	}
	shapes = append(shapes, shape{"torus", 4, 2}, shape{"torus", 2, 1}, shape{"torus", 5, 3}, shape{"torus", 7, 6})
	for _, sh := range shapes {
		name, nodes := fmt.Sprintf("%s %dx%d", sh.topo, sh.w, sh.h), sh.w*sh.h
		p := memsys.Default(nodes)
		p.Topology, p.MeshW, p.MeshH = sh.topo, sh.w, sh.h
		n := New(p)
		n.Send(0, nodes-1, p.CtrlBytes, 0)
		if len(n.at) != nodes*nodes+1 || int(n.at[nodes*nodes]) != len(n.links) || cap(n.links) != len(n.links) {
			t.Fatalf("%s: table of %d offsets and %d links (cap %d) after the first Send", name, len(n.at), len(n.links), cap(n.links))
		}
		var runs []Run
		var want []int32
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				runs = n.topo.Route(runs[:0], s, d)
				want = want[:0]
				for _, r := range runs {
					for k, l := int32(0), r.First; k < r.Len; k, l = k+1, l+r.Stride {
						want = append(want, l)
					}
				}
				i := s*nodes + d
				if got := n.links[n.at[i]:n.at[i+1]]; !slices.Equal(got, want) {
					t.Fatalf("%s: route %d->%d tabulated as %v, Route gives %v", name, s, d, got, want)
				}
			}
		}
	}
}

// TestWideMeshBuildsNoTable: above tableNodes, Send and Fan walk Route's
// runs and never build a route table.
func TestWideMeshBuildsNoTable(t *testing.T) {
	p := memsys.Default(1024)
	n := New(p)
	last := p.Nodes() - 1
	at := n.Send(0, last, p.CtrlBytes, 0)
	n.Fan(3, []int{1, 3, last}, p.HeaderBytes+p.LineSize, p.CtrlBytes, at)
	if n.links != nil || n.at != nil {
		t.Fatalf("the %d-node mesh built a table of %d offsets and %d links", p.Nodes(), len(n.at), len(n.links))
	}
}

// TestBookMatchesDefinition pins the per-link step that Send and Fan share,
// and so cannot check against each other, to the rule MODEL.md §2 states:
// a message that reaches a link at t begins its transfer at
// max(t + HopLatency, busyUntil), waits the difference, departs T cycles
// later, and leaves busyUntil at its departure. The wait is what walk
// charges as queueing: the crossing time less the hop and the transfer.
// Arrivals, busy-until times, hop and transfer costs are seeded random; a
// quarter of the steps tie the link's busy-until with the message's ready
// time, and a quarter arrive exactly when the link's last message departs
// (a zero gap).
func TestBookMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	busy := make([]Time, 8)
	before := make([]Time, len(busy))
	var last Time // the last step's departure
	for i := 0; i < 100_000; i++ {
		l := int32(rng.Intn(len(busy)))
		hop, transfer := Time(rng.Intn(4)), Time(1+rng.Intn(64))
		at := last + Time(rng.Intn(200)) - min(last, 100)
		switch rng.Intn(4) {
		case 0: // a tie: the link frees just as the message is ready for it
			busy[l] = at + hop
		case 1: // a zero gap: the message reaches the link as its last one departs
			at = busy[l]
		case 2:
			busy[l] = at + hop + Time(rng.Intn(100)) - min(at+hop, 50)
		}
		copy(before, busy)

		ready := at + hop
		begin := ready
		if busy[l] > begin {
			begin = busy[l]
		}
		wantDone, wantWait := begin+transfer, begin-ready

		done := book(busy, l, hop, transfer, at)
		if wait := done - at - hop - transfer; done != wantDone || wait != wantWait || busy[l] != wantDone {
			t.Fatalf("step %d: book(link %d busy until %d, hop %d, transfer %d, at %d) = %d (wait %d), busy until %d; want %d (wait %d)",
				i, l, before[l], hop, transfer, at, done, wait, busy[l], wantDone, wantWait)
		}
		before[l] = busy[l]
		if !slices.Equal(busy, before) {
			t.Fatalf("step %d: book on link %d changed another link: %v, want %v", i, l, busy, before)
		}
		last = done
	}
}

// TestSendMatchesDefinition replays each message of a random load hop by
// hop through MODEL.md §2's rule, over Route's links: Send must return the
// same arrival, charge the sum of the hops' waits as queueing, and leave
// every link's busy-until time where the rule does, on the tabulated
// networks and on the 32×32 mesh's strided runs.
func TestSendMatchesDefinition(t *testing.T) {
	for _, c := range testNetworks() {
		t.Run(c.name, func(t *testing.T) {
			n := New(c.p)
			nodes, hop := c.p.Nodes(), c.p.HopLatency
			busy := make([]Time, len(n.busy))
			rng := rand.New(rand.NewSource(int64(nodes)))
			var runs []Run
			var t0, queued Time
			for i := 0; i < 4*nodes; i++ {
				src, dst := rng.Intn(nodes), rng.Intn(nodes)
				bytes := []int{c.p.CtrlBytes, c.p.HeaderBytes + c.p.LineSize}[rng.Intn(2)]
				start := t0 + Time(rng.Intn(200))
				want := start
				for _, r := range n.topo.Route(runs[:0], src, dst) {
					for k, l := int32(0), r.First; k < r.Len; k, l = k+1, l+r.Stride {
						ready, begin := want+hop, want+hop
						if busy[l] > begin {
							begin = busy[l]
						}
						queued += begin - ready
						want = begin + c.p.TransferCycles(bytes)
						busy[l] = want
					}
				}
				if got := n.Send(src, dst, bytes, start); got != want || n.QueueingCycles() != queued {
					t.Fatalf("message %d, %d->%d: arrives at %d after %d cycles of queueing in all; the rule gives %d and %d",
						i, src, dst, got, n.QueueingCycles(), want, queued)
				}
				t0 += Time(rng.Intn(20))
			}
			if !slices.Equal(n.busy, busy) {
				t.Fatal("Send and the rule leave different link busy-until times")
			}
			if queued == 0 && c.name != "xbar" { // a crossbar gives each ordered pair its own link
				t.Fatal("the load never queued a message")
			}
		})
	}
}
