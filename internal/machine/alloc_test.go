package machine

import (
	"testing"

	"zsim/internal/memsys"
)

// A shared-memory word access is the innermost operation of every simulated
// program: on every memory system, once the value table's pages and the
// line's protocol state exist, a load or store must not allocate. Single processor so no concurrent
// worker's allocations pollute the measurement.
func TestWordAccessZeroAlloc(t *testing.T) {
	for _, kind := range memsys.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m := MustNew(kind, memsys.Default(1))
			a := m.Alloc(256)
			m.Run("alloc-pin", func(e *Env) {
				for o := memsys.Addr(0); o < 256; o += 8 {
					e.StoreU64(a+o, uint64(o))
					_ = e.LoadU64(a + o)
				}
				e.ReleasePoint()
				if n := testing.AllocsPerRun(100, func() {
					e.StoreU64(a, 7)
					_ = e.LoadU64(a + 8)
				}); n != 0 {
					t.Errorf("%s: steady-state word access allocates %v times per run", kind, n)
				}
			})
		})
	}
}

// Building a machine allocates per component, not per processor: each
// per-processor set (the engine's processors, the Envs, the store and
// merge buffers) is one slice. At 1,024 processors every memory system
// takes at most 64 allocations (48 for RCinv, which made 3,141 with one
// object per processor).
func TestNewAllocsIndependentOfProcs(t *testing.T) {
	for _, kind := range memsys.Kinds() {
		if n := testing.AllocsPerRun(3, func() { MustNew(kind, memsys.Default(1024)) }); n > 64 {
			t.Errorf("%s: New at 1024 processors allocates %v times, want at most 64", kind, n)
		}
	}
}
