package mesh

import (
	"fmt"
	"testing"

	"zsim/internal/memsys"
)

// Send is called for every protocol message; once its buffer of route runs
// has grown to the route with the most runs, it must never allocate.
func TestSendZeroAlloc(t *testing.T) {
	cases := []struct {
		topo  string
		procs int
	}{
		{"mesh", 16}, {"torus", 16}, {"hypercube", 16}, {"xbar", 16}, {"bus", 16},
		{"hier", 64},   // 2×2 clusters: routes cross gateways
		{"mesh", 1024}, // 32×32: the 62-hop corner-to-corner route
	}
	for _, c := range cases {
		name := c.topo
		if c.procs != 16 {
			name = fmt.Sprintf("%s-%d", c.topo, c.procs)
		}
		t.Run(name, func(t *testing.T) {
			p := memsys.Default(c.procs)
			p.Topology = c.topo
			n := New(p)
			last := c.procs - 1
			var at Time
			// Warm up over a grid of pairs; AllocsPerRun's own warm-up call
			// then covers the corner-to-corner routes.
			step := c.procs / 16
			for s := 0; s < c.procs; s += step {
				for d := 0; d < c.procs; d += step {
					at = n.Send(s, d, 32, at)
				}
			}
			if a := testing.AllocsPerRun(200, func() {
				at = n.Send(0, last, 32, at)
				at = n.Send(last, 0, 8, at)
				at = n.Send(3, 3, 8, at) // local delivery
			}); a != 0 {
				t.Fatalf("Send allocates %v times per run", a)
			}
		})
	}
}
