package cache

import (
	"fmt"
	"testing"

	"zsim/internal/memsys"
)

// The infinite caches back every node of the simulated machine and are
// consulted on every access; their steady state must not hash or allocate,
// in the one-node table of NewInfinite and in a machine's shared table.
func TestInfiniteSteadyStateZeroAlloc(t *testing.T) {
	for _, nodes := range []int{1, 64} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			cs := NewInfinites(nodes)
			for _, c := range cs {
				for a := memsys.Addr(0); a < 64; a++ {
					c.Insert(a)
				}
			}
			c := cs[nodes-1]
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := c.Lookup(7); !ok {
					t.Fatal("warmed line must hit")
				}
				c.Insert(7) // idempotent re-insert
				c.Invalidate(9)
				c.Insert(9) // re-insert after invalidate reuses the slot
			}); n != 0 {
				t.Fatalf("steady-state cache ops allocate %v times per run", n)
			}
		})
	}
}
