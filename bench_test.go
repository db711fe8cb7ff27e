package zsim

// Host-time benchmarks of the evaluation harness: one sub-benchmark per
// entry of the experiment index, plus the benchmarks behind the checker's
// and the metrics' overhead budgets and the worker-pool grids. Everything
// runs at the small scale; `cmd/paperbench -scale paper` regenerates the
// artifacts at the paper's problem sizes, and zbench (bench/) is the
// repository's paired host-time benchmark.

import (
	"fmt"
	"runtime"
	"sort"
	"testing"
	"time"
)

// BenchmarkExperiments regenerates each entry of the experiment index
// (E1..E20) as `paperbench -exp` runs it, one sub-benchmark per ID:
//
//	go test -run '^$' -bench 'Experiments/E7$' .
func BenchmarkExperiments(b *testing.B) {
	params := DefaultParams(16)
	for _, e := range Experiments() {
		b.Run(e.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(ScaleSmall, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckerOverhead measures the cost of running with the
// conformance checker attached against the plain run (acceptance budget:
// ≤2× slowdown). Each iteration runs IS on RCinv once unchecked and once
// checked, and the median checked/unchecked wall-time ratio is reported as
// a metric; compare with
//
//	go test -run '^$' -bench 'CheckerOverhead' -benchtime 20x .
func BenchmarkCheckerOverhead(b *testing.B) {
	params := DefaultParams(16)
	b.ReportAllocs()
	b.ReportMetric(overheadRatio(b, func(checked bool) {
		app, err := NewBenchmark("is", ScaleSmall)
		if err != nil {
			b.Fatal(err)
		}
		m, err := NewMachine(RCInv, params)
		if err != nil {
			b.Fatal(err)
		}
		if checked {
			m.EnableCheck()
		}
		if _, err := RunAppOn(app, m); err != nil {
			b.Fatal(err)
		}
		if checked {
			if err := m.Checker().Err(); err != nil {
				b.Fatal(err)
			}
		}
	}), "checked/unchecked")
}

// BenchmarkMetricsOverhead measures the cost of running with metric
// recording enabled against the plain run (acceptance budget: ≤1.1×
// slowdown). A metered run builds the per-value count arrays of mesh.hops
// and sim.runq_depth, increments them once per message and per switch,
// and builds, fills and merges a registry when it ends; the simulated
// layers record nothing live. Each iteration runs IS on RCinv once with
// metrics off and once with them on, and the median enabled/disabled
// wall-time ratio is reported as a metric; compare with
//
//	go test -run '^$' -bench 'MetricsOverhead' -benchtime 20x .
func BenchmarkMetricsOverhead(b *testing.B) {
	params := DefaultParams(16)
	defer EnableMetrics(EnableMetrics(false))
	defer ResetGlobalMetrics()
	b.ReportAllocs()
	b.ReportMetric(overheadRatio(b, func(enabled bool) {
		EnableMetrics(enabled)
		if _, err := RunBenchmark("is", ScaleSmall, RCInv, params); err != nil {
			b.Fatal(err)
		}
	}), "enabled/disabled")
}

// overheadRatio runs run(false) and run(true) once each per iteration,
// alternating which goes first so that host drift weighs on both sides
// alike, and returns the median over the iterations of the true run's wall
// time over the false run's.
func overheadRatio(b *testing.B, run func(on bool)) float64 {
	ratios := make([]float64, b.N)
	for i := range ratios {
		var off, on time.Duration
		for k := 0; k < 2; k++ {
			start := time.Now()
			if (i+k)%2 == 0 {
				run(false)
				off = time.Since(start)
			} else {
				run(true)
				on = time.Since(start)
			}
		}
		ratios[i] = float64(on) / float64(off)
	}
	sort.Float64s(ratios)
	n := len(ratios)
	return (ratios[(n-1)/2] + ratios[n/2]) / 2
}

// parallelLevels returns the worker bounds the grid benchmarks compare:
// serial, the 2x-speedup acceptance point, and every host core.
func parallelLevels() []int {
	levels := []int{1, 4}
	if n := runtime.NumCPU(); n > 4 {
		levels = append(levels, n)
	}
	return levels
}

// withParallelism runs f with the harness worker bound set to n, restoring
// the previous bound afterwards.
func withParallelism(n int, f func()) {
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

// BenchmarkLitmusSuite runs the full litmus suite (every test on every
// memory system, checker attached) at increasing worker-pool bounds; the
// sub-benchmark wall clocks expose the parallel runner's speedup (≥2x at
// parallel=4 on a ≥4-core host; output is identical at every setting).
func BenchmarkLitmusSuite(b *testing.B) {
	params := DefaultParams(4)
	for _, par := range parallelLevels() {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			withParallelism(par, func() {
				for i := 0; i < b.N; i++ {
					rs, err := RunLitmusSuite(Kinds(), params)
					if err != nil {
						b.Fatal(err)
					}
					if !LitmusOk(rs) {
						b.Fatalf("litmus suite not conformant:\n%s", LitmusReport(rs))
					}
				}
			})
		})
	}
}

// BenchmarkFigureGrid runs the paper's whole figure matrix — every figure
// application on every figure memory system, 20 independent simulations —
// through the worker pool at increasing bounds. This is the experiment
// grid the parallel runner was built for: cells are deterministic and
// independent, so wall clock should shrink near-linearly with cores while
// the assembled figures stay byte-identical.
func BenchmarkFigureGrid(b *testing.B) {
	params := DefaultParams(16)
	apps := Benchmarks()
	kinds := FigureKinds()
	n := len(apps) * len(kinds)
	for _, par := range parallelLevels() {
		par := par
		b.Run(fmt.Sprintf("parallel=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			withParallelism(par, func() {
				for i := 0; i < b.N; i++ {
					results, err := RunGrid(n, func(c int) (*Result, error) {
						return RunBenchmark(apps[c/len(kinds)], ScaleSmall, kinds[c%len(kinds)], params)
					})
					if err != nil {
						b.Fatal(err)
					}
					if len(results) != n {
						b.Fatalf("grid returned %d results, want %d", len(results), n)
					}
				}
			})
		})
	}
}
