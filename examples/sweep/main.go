// Sweep: the paper's §6 architectural-implications analysis as runnable
// parameter sweeps — how write stall responds to store-buffer depth, how
// all overheads respond to network speed, how the competitive threshold
// trades read stall against update traffic, and what finite caches
// (§7 open issues) add on top of the paper's infinite-cache assumption.
//
// Run with: go run ./examples/sweep
package main

import (
	"fmt"
	"log"

	"zsim"
)

func main() {
	params := zsim.DefaultParams(16)
	emit := func(t *zsim.Table, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(t.Render())
	}

	// §6: "Write stall time is dependent on two parameters: the store
	// buffer size and the relative speed of the network."
	emit(zsim.StoreBufferSweep("is", zsim.ScaleSmall, zsim.RCInv, params, []int{1, 2, 4, 8, 16}))
	emit(zsim.NetworkSweep("maxflow", zsim.ScaleSmall, zsim.RCUpd, params, []float64{0.4, 0.8, 1.6, 3.2}))

	// §4: the competitive protocol's threshold.
	emit(zsim.ThresholdSweep("nbody", zsim.ScaleSmall, params, []int{1, 2, 4, 8}))

	// §7 open issue: the effect of finite caches.
	emit(zsim.FiniteCacheSweep("nbody", zsim.ScaleSmall, zsim.RCInv, params, []int{16, 64, 256}))

	// §6: prefetching for cold-miss-dominated applications.
	emit(zsim.PrefetchSweep("cholesky", zsim.ScaleSmall, params, []int{0, 1, 2, 4}))

	// What "most studies" use as their reference, versus this paper's RC.
	emit(zsim.SCvsRC(zsim.ScaleSmall, params))

	// §7 open issue: multithreading as latency tolerance — fixed nodes,
	// more hardware threads per node attacking the same total work. Each
	// point reshapes params to 4 nodes; every other parameter carries over.
	emit(zsim.MultithreadSweep("maxflow", zsim.ScaleSmall, zsim.RCInv, params, 4, []int{1, 2, 4}))
}
