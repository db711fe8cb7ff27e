package mesh

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"zsim/internal/memsys"
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
// last one arrived, so none of these queues.
//
// fanout/8x8 is one write-update transaction of the kind that dominates
// coherence's traffic (upd.updateTxn): a home sends a data message to
// every other node of the 8×8 mesh at the same start time and each node
// acks with a control message, so the fan-out and the acks contend on the
// links around the home. Its ns/op is per message.
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
			b.ReportAllocs()
			b.ResetTimer()
			var t Time
			for i := 0; i < b.N; i++ {
				j := i & (pairs - 1)
				t = n.Send(src[j], dst[j], p.CtrlBytes, t)
			}
		})
	}
	b.Run("fanout/8x8", func(b *testing.B) {
		p := memsys.Default(64)
		n := New(p)
		nodes := p.Nodes()
		data := p.HeaderBytes + p.LineSize
		b.ReportAllocs()
		b.ResetTimer()
		var t Time
		for i, home := 0, 0; i < b.N; home = (home + 1) & (nodes - 1) {
			acks := t
			for s := 0; s < nodes && i < b.N; s++ {
				if s == home {
					continue
				}
				at := n.Send(home, s, data, t)
				if ack := n.Send(s, home, p.CtrlBytes, at); ack > acks {
					acks = ack
				}
				i += 2
			}
			t = acks
		}
	})
}
