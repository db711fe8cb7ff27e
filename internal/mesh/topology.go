package mesh

import (
	"fmt"
	"math/bits"

	"zsim/internal/memsys"
)

// Topology computes routes between nodes. The SPASM framework the paper
// builds on "provides a choice of network topologies"; these are the
// classic ones. All are used through Net, which adds link bandwidth,
// per-hop latency, and contention.
//
// Every topology numbers its links densely in [0, Links()), so Net keeps
// one busy-until slot per link. Route, the per-message hot path, computes
// the whole route once, as a few strided runs of link ids, into a
// caller-owned buffer. NextHop is the readable routing specification:
// Route visits the same links in the same order (TestRouteMatchesNextHop),
// and Path builds on NextHop for tests and debugging.
type Topology interface {
	// Name identifies the topology.
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// Links returns the number of link slots; every link id Route returns
	// lies in [0, Links()).
	Links() int
	// Route appends to runs the links of the route from src to dst, in
	// order, as non-empty runs, and returns the extended slice. It appends
	// nothing when src == dst.
	Route(runs []Run, src, dst int) []Run
	// NextHop returns the node adjacent to cur on the route toward dst
	// (dimension-order routing), or cur itself when cur == dst.
	NextHop(cur, dst int) int
	// Hops returns the routing hop count from src to dst, computed
	// arithmetically without walking the route.
	Hops(src, dst int) int
}

// Run is a stretch of a route that crosses Len links whose ids step by
// Stride: First, First+Stride, ..., First+(Len-1)*Stride. The links of a
// grid leg sit a fixed id distance apart, so a leg is one run unless it
// wraps around a torus. The hypercube, crossbar and bus build one-link
// runs with Stride 0.
type Run struct {
	First, Stride, Len int32
}

// Path returns the nodes visited from src to dst, inclusive, by walking
// NextHop. Routing itself (Net.Send) uses Route; Path exists for tests and
// debugging.
func Path(t Topology, src, dst int) []int {
	path := []int{src}
	for cur := src; cur != dst; {
		cur = t.NextHop(cur, dst)
		path = append(path, cur)
	}
	return path
}

// NewTopology builds the named topology over n nodes. Supported names:
// "mesh" (2-D mesh, XY routing — the paper's network), "torus" (2-D with
// wrap-around links), "hypercube" (dimension-order routing; n must be a
// power of two), "xbar" (full crossbar: every pair one hop), "bus"
// (single shared medium: every transfer serializes), and "hier" (a
// hierarchical cluster-of-meshes; n must be a multiple of
// memsys.HierClusterNodes).
func NewTopology(name string, w, h int) (Topology, error) {
	n := w * h
	switch name {
	case "", "mesh":
		return newGrid(w, h, false), nil
	case "torus":
		return newGrid(w, h, true), nil
	case "hypercube":
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("mesh: hypercube needs a power-of-two node count, got %d", n)
		}
		return &cubeTopo{n: n}, nil
	case "xbar":
		return &directTopo{n: n, shared: false}, nil
	case "bus":
		return &directTopo{n: n, shared: true}, nil
	case "hier":
		return newHierTopo(n)
	}
	return nil, fmt.Errorf("mesh: unknown topology %q", name)
}

// gridTopo is a 2-D mesh or torus with dimension-order (XY) routing.
type gridTopo struct {
	w, h int
	wrap bool
	// xy[v] holds node v's coordinates, so that routing an endpoint
	// divides by nothing.
	xy []gridXY
}

type gridXY struct{ x, y int32 }

func newGrid(w, h int, wrap bool) *gridTopo {
	g := &gridTopo{w: w, h: h, wrap: wrap, xy: make([]gridXY, 0, w*h)}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.xy = append(g.xy, gridXY{int32(x), int32(y)})
		}
	}
	return g
}

// The link leaving grid node v in direction d has id v*gridDirs + d. A
// mesh's boundary nodes leave some of their slots unused.
const (
	linkXPlus = iota
	linkXMinus
	linkYPlus
	linkYMinus
	gridDirs
)

func (g *gridTopo) Name() string {
	if g.wrap {
		return "torus"
	}
	return "mesh"
}

func (g *gridTopo) Nodes() int { return g.w * g.h }
func (g *gridTopo) Links() int { return g.Nodes() * gridDirs }

// step moves coordinate c toward t over size n, using the wrap-around link
// when the torus makes it shorter.
func (g *gridTopo) step(c, t, n int) int {
	if c == t {
		return c
	}
	fwd := (t - c + n) % n
	bwd := (c - t + n) % n
	if g.wrap && bwd < fwd {
		return (c - 1 + n) % n
	}
	if g.wrap && fwd <= bwd {
		return (c + 1) % n
	}
	if t > c {
		return c + 1
	}
	return c - 1
}

// disp returns the signed hop count from coordinate c to t along a
// dimension of size n: positive when the route runs toward increasing
// coordinates. On a torus it takes the shorter way around, with step's tie
// rule: when both ways are equally long, the increasing way wins.
func (g *gridTopo) disp(c, t, n int32) int32 {
	d := t - c
	if !g.wrap {
		return d
	}
	if d < 0 {
		d += n
	}
	if n-d < d {
		return d - n
	}
	return d
}

// leg returns the runs of a leg of disp hops (negative: toward decreasing
// coordinates) from coordinate c along a dimension of size n. up is the id
// of the increasing link of the node the leg starts at (the decreasing one
// is up+1), and stride the id distance between neighbours along the
// dimension. step picks the same direction at every hop of a leg, so the
// leg is one run, unless it crosses a torus's wrap-around link: then it
// splits in two at the edge, and b, the part past the wrap, starts n nodes
// back from where a would go on, at the opposite edge. b.Len is 0 when the
// leg does not wrap, and a.Len is 0 when disp is.
func leg(up, stride, disp, c, n int32) (a, b Run) {
	a, room := Run{up, stride, disp}, n-c
	if disp < 0 {
		a, room = Run{up + 1, -stride, -disp}, c+1
	}
	if a.Len > room {
		b = Run{a.First + (room-n)*a.Stride, a.Stride, a.Len - room}
		a.Len = room
	}
	return a, b
}

// Route appends the XY route from src to dst: at most one run per
// dimension, picked by the sign of the displacement, except that a torus
// leg that wraps splits in two. The endpoints' coordinates come from the
// table, so no division is left, and both legs are computed in this one
// call.
func (g *gridTopo) Route(runs []Run, src, dst int) []Run {
	s, d := g.xy[src], g.xy[dst]
	w, h := int32(g.w), int32(g.h)
	slot := int32(src) * gridDirs
	xa, xb := leg(slot+linkXPlus, gridDirs, g.disp(s.x, d.x, w), s.x, w)
	slot += (d.x - s.x) * gridDirs // the turn node, (d.x, s.y)
	ya, yb := leg(slot+linkYPlus, w*gridDirs, g.disp(s.y, d.y, h), s.y, h)
	if xa.Len > 0 {
		runs = append(runs, xa)
	}
	if xb.Len > 0 {
		runs = append(runs, xb)
	}
	if ya.Len > 0 {
		runs = append(runs, ya)
	}
	if yb.Len > 0 {
		runs = append(runs, yb)
	}
	return runs
}

func (g *gridTopo) NextHop(cur, dst int) int {
	x, y := cur%g.w, cur/g.w
	dx, dy := dst%g.w, dst/g.w
	if x != dx { // X first (dimension order)
		return y*g.w + g.step(x, dx, g.w)
	}
	if y != dy {
		return g.step(y, dy, g.h)*g.w + x
	}
	return cur
}

func (g *gridTopo) Hops(src, dst int) int {
	s, d := g.xy[src], g.xy[dst]
	return int(abs(g.disp(s.x, d.x, int32(g.w))) + abs(g.disp(s.y, d.y, int32(g.h))))
}

func abs(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

// cubeTopo is a hypercube with dimension-order (bit-fixing) routing. The
// link leaving node v across dimension b has id v*Dim() + b.
type cubeTopo struct{ n int }

func (c *cubeTopo) Name() string { return "hypercube" }
func (c *cubeTopo) Nodes() int   { return c.n }
func (c *cubeTopo) Links() int   { return c.n * c.Dim() }

// Route returns one run per differing bit: consecutive hops leave
// different nodes across different dimensions, so no stride links them.
func (c *cubeTopo) Route(runs []Run, src, dst int) []Run {
	dim := c.Dim()
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros(uint(diff))
		runs = append(runs, Run{First: int32(src*dim + b), Len: 1})
		src ^= 1 << b
	}
	return runs
}

func (c *cubeTopo) NextHop(cur, dst int) int {
	diff := cur ^ dst
	if diff == 0 {
		return cur
	}
	return cur ^ (diff & -diff) // fix the lowest differing dimension
}

func (c *cubeTopo) Hops(src, dst int) int { return bits.OnesCount(uint(src ^ dst)) }

// Dim returns the hypercube dimension.
func (c *cubeTopo) Dim() int { return bits.TrailingZeros(uint(c.n)) }

// hierTopo is a hierarchical cluster-of-meshes: every cluster is the
// paper's 4×4 mesh (memsys.HierClusterNodes nodes), and the clusters are
// tiled in a higher-level cw×ch mesh. Node numbering is cluster-major
// (node = cluster*16 + local, local row-major inside the cluster), so each
// cluster is a contiguous block of node numbers. Homes interleave lines by
// node number, so every hier result depends on this numbering.
//
// Routing is two-level dimension order: inside the destination cluster an
// ordinary XY route; between clusters the message first drains to the
// source cluster's gateway (local node 0), then steps gateway-to-gateway
// across the cluster-level mesh, then routes XY from the destination
// gateway to the destination node. Inter-cluster links therefore exist
// only between adjacent clusters' gateways, and those links serialize all
// cross-cluster traffic of the pair — the modelled cost of a hierarchy.
//
// Link ids: every cluster's intra-cluster mesh slots in cluster order (so
// node v's links start at v*4), then the cluster mesh's gateway slots.
type hierTopo struct {
	intra *gridTopo // the 4×4 cluster mesh
	inter *gridTopo // the cw×ch mesh of clusters
}

func newHierTopo(n int) (*hierTopo, error) {
	cn := memsys.HierClusterNodes
	if n <= 0 || n%cn != 0 {
		return nil, fmt.Errorf("mesh: hier topology needs a positive multiple of %d nodes (4x4 clusters), got %d", cn, n)
	}
	clusters := n / cn
	best := 1
	for d := 1; d*d <= clusters; d++ {
		if clusters%d == 0 {
			best = d
		}
	}
	return &hierTopo{
		intra: newGrid(4, 4, false),
		inter: newGrid(clusters/best, best, false),
	}, nil
}

func (t *hierTopo) Name() string { return "hier" }
func (t *hierTopo) Nodes() int   { return t.inter.Nodes() * t.intra.Nodes() }
func (t *hierTopo) Links() int   { return t.inter.Nodes()*t.intra.Links() + t.inter.Links() }

// Clusters returns the cluster-level mesh dimensions.
func (t *hierTopo) Clusters() (w, h int) { return t.inter.w, t.inter.h }

// Route composes up to three grid legs: to the source gateway, across the
// cluster mesh, and out from the destination gateway.
func (t *hierTopo) Route(runs []Run, src, dst int) []Run {
	cn, per := t.intra.Nodes(), int32(t.intra.Links())
	sc, sl := src/cn, src%cn
	dc, dl := dst/cn, dst%cn
	if sc == dc {
		return via(runs, t.intra, sl, dl, int32(sc)*per)
	}
	runs = via(runs, t.intra, sl, 0, int32(sc)*per)
	runs = via(runs, t.inter, sc, dc, int32(t.inter.Nodes())*per)
	return via(runs, t.intra, 0, dl, int32(dc)*per)
}

// via appends g's route from src to dst with every link id offset by base.
func via(runs []Run, g *gridTopo, src, dst int, base int32) []Run {
	from := len(runs)
	runs = g.Route(runs, src, dst)
	for i := from; i < len(runs); i++ {
		runs[i].First += base
	}
	return runs
}

func (t *hierTopo) NextHop(cur, dst int) int {
	cn := t.intra.Nodes()
	cc, cl := cur/cn, cur%cn
	dc, dl := dst/cn, dst%cn
	if cc == dc {
		return cc*cn + t.intra.NextHop(cl, dl)
	}
	if cl != 0 {
		// Drain to the local gateway first.
		return cc*cn + t.intra.NextHop(cl, 0)
	}
	// Gateway-to-gateway step across the cluster mesh.
	return t.inter.NextHop(cc, dc) * cn
}

func (t *hierTopo) Hops(src, dst int) int {
	cn := t.intra.Nodes()
	sc, sl := src/cn, src%cn
	dc, dl := dst/cn, dst%cn
	if sc == dc {
		return t.intra.Hops(sl, dl)
	}
	return t.intra.Hops(sl, 0) + t.inter.Hops(sc, dc) + t.intra.Hops(0, dl)
}

// directTopo connects every pair with one hop: a crossbar when each pair
// has its own link (id src*n + dst), a bus when all transfers share one
// medium (the single link 0).
type directTopo struct {
	n      int
	shared bool
}

func (d *directTopo) Name() string {
	if d.shared {
		return "bus"
	}
	return "xbar"
}

func (d *directTopo) Nodes() int { return d.n }

func (d *directTopo) Links() int {
	if d.shared {
		return 1
	}
	return d.n * d.n
}

func (d *directTopo) Route(runs []Run, src, dst int) []Run {
	switch {
	case src == dst:
		return runs
	case d.shared:
		return append(runs, Run{Len: 1})
	}
	return append(runs, Run{First: int32(src*d.n + dst), Len: 1})
}

func (d *directTopo) NextHop(cur, dst int) int { return dst }

func (d *directTopo) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}
