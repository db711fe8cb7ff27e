// Package runner executes grids of independent simulations on a bounded
// worker pool while preserving serial semantics. The paper's evaluation is
// a matrix of independent, deterministic cells (application × memory
// system × parameter point); each cell builds its own machine, so cells
// may run on separate host cores. Results are collected by cell index and
// assembled only after every cell finishes, which makes every output —
// tables, figures, error reporting — byte-identical regardless of the
// worker count.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zsim/internal/metrics"
)

// parallelism bounds the number of concurrently running cells. It defaults
// to GOMAXPROCS: one simulation per host core. 1 means serial.
var parallelism atomic.Int64

func init() { parallelism.Store(int64(runtime.GOMAXPROCS(0))) }

// Parallelism returns the current worker bound used by Grid.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelism sets the worker bound for subsequent Grid calls and
// returns the previous bound. n < 1 selects GOMAXPROCS.
func SetParallelism(n int) int {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(parallelism.Swap(int64(n)))
}

// CellWallBuckets are the inclusive upper bounds (in milliseconds) of the
// runner.cell_wall_ms histogram. Cell wall time is host-side accounting:
// it varies with the machine and the -parallel setting, unlike every
// simulated metric.
var CellWallBuckets = []uint64{1, 5, 10, 25, 50, 100, 250, 1000}

// gridMetrics carries the per-grid handles recorded into metrics.Default.
// Handles are fetched per Grid call (not cached) so a Default.Reset
// between evaluation phases cannot leave stale metric pointers behind.
type gridMetrics struct {
	cells *metrics.Counter
	wall  *metrics.Histogram
	busy  *metrics.Gauge
}

// run executes one cell with host-side wall-time and occupancy accounting.
func (g *gridMetrics) run(do func()) {
	if g == nil {
		do()
		return
	}
	g.busy.Add(1)
	start := time.Now()
	do()
	g.wall.Observe(uint64(time.Since(start).Milliseconds()))
	g.busy.Add(-1)
	g.cells.Inc()
}

func newGridMetrics() *gridMetrics {
	if !metrics.Enabled() {
		return nil
	}
	metrics.Default.Counter("runner.grids").Inc()
	return &gridMetrics{
		cells: metrics.Default.Counter("runner.cells"),
		wall:  metrics.Default.Histogram("runner.cell_wall_ms", CellWallBuckets),
		busy:  metrics.Default.Gauge("runner.workers_busy"),
	}
}

// Grid runs cell(0), ..., cell(n-1) on up to Parallelism() workers and
// returns the n results indexed by cell. The outcome is independent of the
// worker count:
//
//   - results are collected by index, so assembly order equals serial order;
//   - every cell runs even when another cell fails, so the pool always
//     drains, and the returned error is the failing cell with the smallest
//     index — exactly the error a serial left-to-right run would surface;
//   - a panicking cell cannot wedge the pool: workers capture the panic,
//     the remaining cells still run, and the smallest-index panic is
//     re-raised in the caller once the pool has drained.
//
// Cells must be independent (no shared mutable state); each should build
// its own machine.
func Grid[T any](n int, cell func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	panics := make([]any, n)
	gm := newGridMetrics()
	if workers <= 1 {
		// Serial: run in the caller's goroutine. Every cell still runs on
		// error or panic so the outcome matches the pooled path's.
		for i := 0; i < n; i++ {
			i := i
			gm.run(func() { runCell(cell, i, results, errs, panics) })
		}
		for _, pv := range panics {
			if pv != nil {
				panic(pv)
			}
		}
		return results, firstError(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				gm.run(func() { runCell(cell, i, results, errs, panics) })
			}
		}()
	}
	wg.Wait()
	for _, pv := range panics {
		if pv != nil {
			panic(pv)
		}
	}
	return results, firstError(errs)
}

// runCell executes one cell, capturing a panic so the worker survives to
// drain its remaining cells.
func runCell[T any](cell func(i int) (T, error), i int, results []T, errs []error, panics []any) {
	defer func() {
		if r := recover(); r != nil {
			panics[i] = r
		}
	}()
	results[i], errs[i] = cell(i)
}

// firstError returns the smallest-index non-nil error.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
