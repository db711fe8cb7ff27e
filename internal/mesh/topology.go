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
// the whole route once into a caller-owned buffer of link ids. NextHop is
// the readable routing specification: Route visits the same links in the
// same order (TestRouteMatchesNextHop), and Path builds on NextHop for
// tests and debugging.
type Topology interface {
	// Name identifies the topology.
	Name() string
	// Nodes returns the node count.
	Nodes() int
	// Links returns the number of link slots; every link id Route returns
	// lies in [0, Links()).
	Links() int
	// Route appends to links the id of every link on the route from src to
	// dst, in order, and returns the extended slice. It appends nothing
	// when src == dst.
	Route(links []int32, src, dst int) []int32
	// NextHop returns the node adjacent to cur on the route toward dst
	// (dimension-order routing), or cur itself when cur == dst.
	NextHop(cur, dst int) int
	// Hops returns the routing hop count from src to dst, computed
	// arithmetically without walking the route.
	Hops(src, dst int) int
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
		return &gridTopo{w: w, h: h, wrap: false}, nil
	case "torus":
		return &gridTopo{w: w, h: h, wrap: true}, nil
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

// leg returns the hop count from c to t along a dimension of size n (the
// shorter way around on a torus) and whether the route runs toward
// increasing coordinates. It applies step's tie rule: when both ways
// around a torus are equally long, the increasing way wins.
func (g *gridTopo) leg(c, t, n int) (hops int, up bool) {
	d := t - c
	if !g.wrap {
		if d < 0 {
			return -d, false
		}
		return d, true
	}
	if d < 0 {
		d += n
	}
	if b := n - d; b < d {
		return b, false
	}
	return d, true
}

// walk appends the links of the leg from coordinate c to t along one
// dimension of size n. slot is the id of the first link of the node the
// leg starts at, stride the id distance between neighbours along the
// dimension, and up the direction index of the increasing link (the
// decreasing one is up+1). It returns the extended links and the first
// link id of the node the leg ends at. step picks the same direction at
// every hop of a leg, so leg decides it once; each hop then steps by one
// and wraps with a compare.
func (g *gridTopo) walk(links []int32, slot, c, t, n, stride, up int) ([]int32, int) {
	hops, inc := g.leg(c, t, n)
	if inc {
		for ; hops > 0; hops-- {
			links = append(links, int32(slot+up))
			if c++; c == n {
				c, slot = 0, slot-(n-1)*stride
			} else {
				slot += stride
			}
		}
		return links, slot
	}
	for ; hops > 0; hops-- {
		links = append(links, int32(slot+up+1))
		if c == 0 {
			c, slot = n-1, slot+(n-1)*stride
		} else {
			c, slot = c-1, slot-stride
		}
	}
	return links, slot
}

// route appends the XY route from src to dst with every link id offset by
// base. The endpoints' coordinates are the only divisions.
func (g *gridTopo) route(links []int32, src, dst, base int) []int32 {
	slot := base + src*gridDirs
	links, slot = g.walk(links, slot, src%g.w, dst%g.w, g.w, gridDirs, linkXPlus)
	links, _ = g.walk(links, slot, src/g.w, dst/g.w, g.h, g.w*gridDirs, linkYPlus)
	return links
}

func (g *gridTopo) Route(links []int32, src, dst int) []int32 {
	return g.route(links, src, dst, 0)
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
	hx, _ := g.leg(src%g.w, dst%g.w, g.w)
	hy, _ := g.leg(src/g.w, dst/g.w, g.h)
	return hx + hy
}

// cubeTopo is a hypercube with dimension-order (bit-fixing) routing. The
// link leaving node v across dimension b has id v*Dim() + b.
type cubeTopo struct{ n int }

func (c *cubeTopo) Name() string { return "hypercube" }
func (c *cubeTopo) Nodes() int   { return c.n }
func (c *cubeTopo) Links() int   { return c.n * c.Dim() }

func (c *cubeTopo) Route(links []int32, src, dst int) []int32 {
	dim := c.Dim()
	for diff := src ^ dst; diff != 0; diff &= diff - 1 {
		b := bits.TrailingZeros(uint(diff))
		links = append(links, int32(src*dim+b))
		src ^= 1 << b
	}
	return links
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
// (node = cluster*16 + local, local row-major inside the cluster), so the
// kernel's contiguous shard bands (memsys.ShardOfNode) group whole
// clusters and every cross-shard message crosses a cluster boundary.
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
	intra gridTopo // the 4×4 cluster mesh
	inter gridTopo // the cw×ch mesh of clusters
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
		intra: gridTopo{w: 4, h: 4},
		inter: gridTopo{w: clusters / best, h: best},
	}, nil
}

func (t *hierTopo) Name() string { return "hier" }
func (t *hierTopo) Nodes() int   { return t.inter.Nodes() * t.intra.Nodes() }
func (t *hierTopo) Links() int   { return t.inter.Nodes()*t.intra.Links() + t.inter.Links() }

// Clusters returns the cluster-level mesh dimensions.
func (t *hierTopo) Clusters() (w, h int) { return t.inter.w, t.inter.h }

func (t *hierTopo) Route(links []int32, src, dst int) []int32 {
	cn, per := t.intra.Nodes(), t.intra.Links()
	sc, sl := src/cn, src%cn
	dc, dl := dst/cn, dst%cn
	if sc == dc {
		return t.intra.route(links, sl, dl, sc*per)
	}
	links = t.intra.route(links, sl, 0, sc*per)
	links = t.inter.route(links, sc, dc, t.inter.Nodes()*per)
	return t.intra.route(links, 0, dl, dc*per)
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

func (d *directTopo) Route(links []int32, src, dst int) []int32 {
	switch {
	case src == dst:
		return links
	case d.shared:
		return append(links, 0)
	}
	return append(links, int32(src*d.n+dst))
}

func (d *directTopo) NextHop(cur, dst int) int { return dst }

func (d *directTopo) Hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return 1
}
