package mesh

import (
	"fmt"
	"testing"

	"zsim/internal/memsys"
)

// testNetwork is one network the Send and Fan pins run on.
type testNetwork struct {
	name string
	p    memsys.Params
}

// testNetworks returns every topology on 16 nodes, the hierarchy across
// gateways, and the 32×32 mesh with its 62-hop corner-to-corner route.
func testNetworks() []testNetwork {
	cases := []struct {
		topo  string
		procs int
	}{
		{"mesh", 16}, {"torus", 16}, {"hypercube", 16}, {"xbar", 16}, {"bus", 16},
		{"hier", 64},   // 2×2 clusters: routes cross gateways
		{"mesh", 1024}, // 32×32: the 62-hop corner-to-corner route
	}
	var out []testNetwork
	for _, c := range cases {
		name := c.topo
		if c.procs != 16 {
			name = fmt.Sprintf("%s-%d", c.topo, c.procs)
		}
		p := memsys.Default(c.procs)
		p.Topology = c.topo
		out = append(out, testNetwork{name, p})
	}
	return out
}

// Send and Fan are called for every protocol message; once the buffer of
// route runs has grown to the route with the most runs, they must never
// allocate.
func TestSendZeroAlloc(t *testing.T) {
	for _, c := range testNetworks() {
		t.Run(c.name, func(t *testing.T) {
			n := New(c.p)
			procs := c.p.Nodes()
			last := procs - 1
			var at Time
			// Warm up over a grid of pairs; AllocsPerRun's own warm-up call
			// then covers the corner-to-corner routes.
			step := procs / 16
			for s := 0; s < procs; s += step {
				for d := 0; d < procs; d += step {
					at = n.Send(s, d, 32, at)
				}
			}
			dsts := []int{1, 3, last} // 3 is the home: a free round trip
			if a := testing.AllocsPerRun(200, func() {
				at = n.Send(0, last, 32, at)
				at = n.Send(last, 0, 8, at)
				at = n.Send(3, 3, 8, at) // local delivery
				at = n.Fan(3, dsts, 40, 8, at)
			}); a != 0 {
				t.Fatalf("Send and Fan allocate %v times per run", a)
			}
		})
	}
}
