package cache

import (
	"fmt"
	"testing"

	"zsim/internal/memsys"
)

// The infinite caches back every node of the simulated machine and are
// consulted on every access; their steady state must not hash or allocate,
// in the one-node table of NewInfinite and in a machine's shared table, up
// to the many-core cap. That holds when an invalidation gives a tile back
// and the next insert takes it again from the free list.
func TestInfiniteSteadyStateZeroAlloc(t *testing.T) {
	for _, nodes := range []int{1, 64, memsys.MaxProcs} {
		t.Run(fmt.Sprint(nodes), func(t *testing.T) {
			tab, cs := NewInfinites(nodes)
			for _, c := range cs {
				for a := memsys.Addr(0); a < 64; a++ {
					c.Insert(a)
				}
			}
			warm := tab.carved
			c := cs[nodes-1]
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := c.Lookup(7); !ok {
					t.Fatal("warmed line must hit")
				}
				c.Insert(7) // idempotent re-insert
				c.Invalidate(9)
				c.Insert(9) // re-insert after invalidate reuses the slot
				c.Insert(1000)
				c.Invalidate(1000) // the tile's last copy: gives it back
				c.Insert(1000)     // takes it again from the free list
				c.Invalidate(1000)
			}); n != 0 {
				t.Fatalf("steady-state cache ops allocate %v times per run", n)
			}
			if tab.carved != warm+1 || len(tab.free) != 1 {
				t.Fatalf("carved %d tiles after the warm-up's %d, %d given back, want 1 and 1", tab.carved-warm, warm, len(tab.free))
			}
		})
	}
}
