package mesh

import (
	"fmt"
	"testing"
	"testing/quick"

	"zsim/internal/memsys"
)

func topoNet(t *testing.T, name string, procs int) *Net {
	t.Helper()
	p := memsys.Default(procs)
	p.Topology = name
	n := New(p)
	return n
}

func allTopos() []string { return []string{"mesh", "torus", "hypercube", "xbar", "bus", "hier"} }

func TestTopologyNames(t *testing.T) {
	for _, name := range allTopos() {
		n := topoNet(t, name, 16)
		if got := n.Topology().Name(); got != name {
			t.Errorf("topology %s reports name %s", name, got)
		}
	}
}

func TestUnknownTopology(t *testing.T) {
	if _, err := NewTopology("ring-of-fire", 4, 4); err == nil {
		t.Fatal("expected error")
	}
	p := memsys.Default(16)
	p.Topology = "ring-of-fire"
	if err := p.Validate(); err == nil {
		t.Fatal("params should reject unknown topology")
	}
}

func TestHypercubeNeedsPowerOfTwo(t *testing.T) {
	if _, err := NewTopology("hypercube", 4, 3); err == nil {
		t.Fatal("expected error for 12 nodes")
	}
	p := memsys.Default(12)
	p.Topology = "hypercube"
	if err := p.Validate(); err == nil {
		t.Fatal("params should reject 12-node hypercube")
	}
}

// Property: every topology produces well-formed paths (right endpoints,
// no zero-length steps) for all pairs.
func TestAllTopologiesPathsWellFormed(t *testing.T) {
	for _, name := range allTopos() {
		n := topoNet(t, name, 16)
		for src := 0; src < 16; src++ {
			for dst := 0; dst < 16; dst++ {
				path := n.Path(src, dst)
				if path[0] != src || path[len(path)-1] != dst {
					t.Fatalf("%s: bad endpoints %v for %d->%d", name, path, src, dst)
				}
				for i := 1; i < len(path); i++ {
					if path[i] == path[i-1] {
						t.Fatalf("%s: repeated node in path %v", name, path)
					}
					if path[i] < 0 || path[i] >= 16 {
						t.Fatalf("%s: node out of range in %v", name, path)
					}
				}
			}
		}
	}
}

func TestTorusShorterThanMesh(t *testing.T) {
	mesh := topoNet(t, "mesh", 16)
	torus := topoNet(t, "torus", 16)
	// Corner to corner: mesh needs 6 hops, torus wraps in 2.
	if mesh.Hops(0, 15) != 6 {
		t.Fatalf("mesh corner hops = %d, want 6", mesh.Hops(0, 15))
	}
	if torus.Hops(0, 15) != 2 {
		t.Fatalf("torus corner hops = %d, want 2", torus.Hops(0, 15))
	}
	// Torus never exceeds the mesh.
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if torus.Hops(s, d) > mesh.Hops(s, d) {
				t.Fatalf("torus %d->%d longer than mesh", s, d)
			}
		}
	}
}

func TestHypercubeHopsArePopcount(t *testing.T) {
	n := topoNet(t, "hypercube", 16)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			want := 0
			for diff := s ^ d; diff != 0; diff &= diff - 1 {
				want++
			}
			if got := n.Hops(s, d); got != want {
				t.Fatalf("hypercube Hops(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

func TestXbarSingleHop(t *testing.T) {
	n := topoNet(t, "xbar", 16)
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			want := 1
			if s == d {
				want = 0
			}
			if n.Hops(s, d) != want {
				t.Fatalf("xbar Hops(%d,%d) = %d", s, d, n.Hops(s, d))
			}
		}
	}
	// Distinct pairs do not contend.
	n.Send(0, 1, 8, 0)
	n.Send(2, 3, 8, 0)
	if n.QueueingCycles() != 0 {
		t.Fatal("xbar pairs should not contend")
	}
}

func TestBusSerializesEverything(t *testing.T) {
	n := topoNet(t, "bus", 16)
	a := n.Send(0, 1, 8, 0)
	b := n.Send(2, 3, 8, 0) // disjoint endpoints, same medium
	if b <= a {
		t.Fatalf("bus transfers must serialize: %d then %d", a, b)
	}
	if n.QueueingCycles() == 0 {
		t.Fatal("expected bus contention")
	}
}

// Property: on every topology, Send on an idle network equals the
// uncontended latency.
func TestSendMatchesUncontendedPerTopology(t *testing.T) {
	for _, name := range allTopos() {
		name := name
		f := func(s, d uint8, sz uint8) bool {
			src, dst := int(s)%16, int(d)%16
			bytes := int(sz)%64 + 1
			n := topoNet(t, name, 16)
			return n.Send(src, dst, bytes, 0) == n.UncontendedLatency(src, dst, bytes)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// walkLen counts NextHop steps from src to dst, failing the test if the
// walk does not terminate within the node count (a routing cycle).
func walkLen(t *testing.T, topo Topology, src, dst int) int {
	t.Helper()
	steps := 0
	for cur := src; cur != dst; {
		next := topo.NextHop(cur, dst)
		if next == cur {
			t.Fatalf("%s: NextHop(%d,%d) stuck at %d", topo.Name(), src, dst, cur)
		}
		cur = next
		if steps++; steps > topo.Nodes() {
			t.Fatalf("%s: route %d->%d does not terminate", topo.Name(), src, dst)
		}
	}
	return steps
}

func TestHierNeedsClusterMultiple(t *testing.T) {
	if _, err := NewTopology("hier", 4, 3); err == nil {
		t.Fatal("expected error for 12 nodes")
	}
	p := memsys.Default(24)
	p.Topology = "hier"
	if err := p.Validate(); err == nil {
		t.Fatal("params should reject a 24-node hier machine")
	}
}

// TestHierRoutingConsistent: on the hierarchical topology the NextHop walk
// length equals the arithmetic Hops for every pair — exhaustively at 64
// nodes (a 2×2 grid of 4×4 clusters) and on the cluster-crossing diagonal
// at 256 nodes (4×4 grid of clusters).
func TestHierRoutingConsistent(t *testing.T) {
	for _, nodes := range []int{16, 64} {
		topo, err := NewTopology("hier", nodes/4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if topo.Nodes() != nodes {
			t.Fatalf("hier over %d nodes reports %d", nodes, topo.Nodes())
		}
		for s := 0; s < nodes; s++ {
			for d := 0; d < nodes; d++ {
				if got, want := walkLen(t, topo, s, d), topo.Hops(s, d); got != want {
					t.Fatalf("hier %d nodes: walk %d->%d took %d hops, Hops says %d", nodes, s, d, got, want)
				}
			}
		}
	}
	topo, err := NewTopology("hier", 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 256; s += 7 {
		for d := 255; d >= 0; d -= 11 {
			if got, want := walkLen(t, topo, s, d), topo.Hops(s, d); got != want {
				t.Fatalf("hier 256 nodes: walk %d->%d took %d hops, Hops says %d", s, d, got, want)
			}
		}
	}
}

// TestHierHopsDecompose pins the two-level distance: cross-cluster routes
// cost (to local gateway) + (gateway-to-gateway) + (gateway to target).
func TestHierHopsDecompose(t *testing.T) {
	topo, err := NewTopology("hier", 8, 8) // 64 nodes, 2×2 clusters
	if err != nil {
		t.Fatal(err)
	}
	h := topo.(*hierTopo)
	if w, hh := h.Clusters(); w != 2 || hh != 2 {
		t.Fatalf("cluster grid = %dx%d, want 2x2", w, hh)
	}
	// Node 5 (cluster 0, local 5 = (1,1)) to node 26 (cluster 1, local 10 =
	// (2,2)): 2 hops to gateway 0, 1 cluster hop, 4 hops out to local 10.
	if got := topo.Hops(5, 26); got != 7 {
		t.Fatalf("Hops(5,26) = %d, want 7", got)
	}
	// Same cluster: plain 4×4 mesh distance.
	if got := topo.Hops(5, 10); got != 2 {
		t.Fatalf("Hops(5,10) = %d, want 2", got)
	}
	// Gateway to gateway of a diagonal cluster: two cluster-level hops.
	if got := topo.Hops(0, 48); got != 2 {
		t.Fatalf("Hops(0,48) = %d, want 2", got)
	}
}

// TestWideMeshHops pins the many-core mesh diameters: 16×16 and 32×32
// meshes route corner to corner in (w-1)+(h-1) hops and the walk agrees.
func TestWideMeshHops(t *testing.T) {
	for _, wh := range [][2]int{{16, 16}, {32, 32}} {
		w, h := wh[0], wh[1]
		topo, err := NewTopology("mesh", w, h)
		if err != nil {
			t.Fatal(err)
		}
		n := w * h
		corner := n - 1
		if got, want := topo.Hops(0, corner), (w-1)+(h-1); got != want {
			t.Fatalf("%dx%d corner hops = %d, want %d", w, h, got, want)
		}
		if got := walkLen(t, topo, 0, corner); got != topo.Hops(0, corner) {
			t.Fatalf("%dx%d: walk %d != Hops %d", w, h, got, topo.Hops(0, corner))
		}
		for s := 0; s < n; s += 37 {
			for d := 0; d < n; d += 41 {
				if got, want := walkLen(t, topo, s, d), topo.Hops(s, d); got != want {
					t.Fatalf("%dx%d: walk %d->%d took %d, Hops says %d", w, h, s, d, got, want)
				}
			}
		}
	}
}

// TestRouteMatchesNextHop pins Route to the NextHop specification. For
// every pair the route's runs are non-empty and expand to Hops link ids,
// Hops is below Nodes() (a route never revisits a node: Net's array of
// hop counts relies on it), every id lies in [0, Links()), and the map
// from each NextHop step (cur, next) to the expanded id at the same
// position is a bijection across all pairs: two messages share a link slot exactly when their
// NextHop walks share a link, so contention is the same as stepping hop
// by hop. On the bus every step crosses the one shared medium. A mesh
// route is at most one run per dimension, X before Y. Every topology is
// covered exhaustively at 16 and 64 nodes, as is the torus on shapes
// where its legs wrap differently: a dimension of size 2, the only one on
// which its tie rule chooses between two links to the same neighbour, and
// odd sides (5×3, 7×6), where a wrapping leg splits without a tie, and
// the mesh on the 13×1 line memsys.Default builds for a prime processor
// count. The many-core shapes are covered on a strided sample of pairs.
func TestRouteMatchesNextHop(t *testing.T) {
	type shape struct {
		topo   string
		w, h   int
		stride int
	}
	var shapes []shape
	for _, name := range allTopos() {
		shapes = append(shapes, shape{name, 4, 4, 1}, shape{name, 8, 8, 1})
	}
	shapes = append(shapes, shape{"torus", 4, 2, 1}, shape{"torus", 2, 1, 1},
		shape{"torus", 5, 3, 1}, shape{"torus", 7, 6, 1}, shape{"mesh", 13, 1, 1},
		shape{"mesh", 16, 16, 7}, shape{"mesh", 32, 32, 29}, shape{"torus", 32, 32, 29},
		shape{"hier", 16, 16, 7})
	for _, sh := range shapes {
		topo, err := NewTopology(sh.topo, sh.w, sh.h)
		if err != nil {
			t.Fatal(err)
		}
		name, n := fmt.Sprintf("%s %dx%d", sh.topo, sh.w, sh.h), topo.Nodes()
		slotOf := map[[2]int]int32{} // NextHop step → link id
		stepOf := map[int32][2]int{} // link id → NextHop step
		var runs []Run
		var route []int32
		for s := 0; s < n; s += sh.stride {
			for d := n - 1; d >= 0; d -= sh.stride {
				runs = topo.Route(runs[:0], s, d)
				route = route[:0]
				for _, r := range runs {
					if r.Len <= 0 {
						t.Fatalf("%s: Route(%d,%d) %v has an empty run", name, s, d, runs)
					}
					for k, l := int32(0), r.First; k < r.Len; k, l = k+1, l+r.Stride {
						route = append(route, l)
					}
				}
				if sh.topo == "mesh" {
					checkMeshRuns(t, name, sh.w, s, d, runs)
				}
				if len(route) != topo.Hops(s, d) {
					t.Fatalf("%s: Route(%d,%d) has %d links, Hops says %d", name, s, d, len(route), topo.Hops(s, d))
				}
				if topo.Hops(s, d) >= n {
					t.Fatalf("%s: Hops(%d,%d) = %d, not below the %d nodes", name, s, d, topo.Hops(s, d), n)
				}
				i := 0
				for cur := s; cur != d; i++ {
					if i == len(route) {
						t.Fatalf("%s: Route(%d,%d) %v ends before the NextHop walk", name, s, d, route)
					}
					next, id := topo.NextHop(cur, d), route[i]
					if id < 0 || int(id) >= topo.Links() {
						t.Fatalf("%s: Route(%d,%d) link %d outside [0,%d)", name, s, d, id, topo.Links())
					}
					step := [2]int{cur, next}
					if sh.topo == "bus" {
						step = [2]int{} // the one shared medium
					}
					if prev, ok := slotOf[step]; ok && prev != id {
						t.Fatalf("%s: step %v is link %d on one route and %d on another", name, step, prev, id)
					}
					if prev, ok := stepOf[id]; ok && prev != step {
						t.Fatalf("%s: link %d carries steps %v and %v", name, id, prev, step)
					}
					slotOf[step], stepOf[id] = id, step
					cur = next
				}
				if i != len(route) {
					t.Fatalf("%s: Route(%d,%d) %v runs past the NextHop walk", name, s, d, route)
				}
			}
		}
	}
}

// checkMeshRuns requires a w-wide mesh route from s to d to be at most one
// run per dimension, X before Y, each crossing the leg's whole
// displacement one node (X) or one row (Y) per link.
func checkMeshRuns(t *testing.T, name string, w, s, d int, runs []Run) {
	t.Helper()
	var want []Run
	for _, dim := range [][2]int{{d%w - s%w, gridDirs}, {d/w - s/w, w * gridDirs}} {
		disp, stride := dim[0], dim[1]
		if disp < 0 {
			disp, stride = -disp, -stride
		}
		if disp > 0 {
			want = append(want, Run{Stride: int32(stride), Len: int32(disp)})
		}
	}
	if len(runs) != len(want) {
		t.Fatalf("%s: Route(%d,%d) is %d runs %v, want %d", name, s, d, len(runs), runs, len(want))
	}
	for i, r := range runs {
		if r.Stride != want[i].Stride || r.Len != want[i].Len {
			t.Fatalf("%s: Route(%d,%d) run %d is %+v, want stride %d length %d", name, s, d, i, r, want[i].Stride, want[i].Len)
		}
	}
}

func TestTopologyString(t *testing.T) {
	n := topoNet(t, "torus", 16)
	if got := n.String(); got == "" {
		t.Fatal("String empty")
	}
}
