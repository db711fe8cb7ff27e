// Overheads: regenerate one of the paper's per-application figures — the
// same workload on the z-machine and the four RC memory systems, with the
// execution time decomposed into the three overhead classes.
//
// Run with:
//
//	go run ./examples/overheads                  # IS (Figure 3), small scale
//	go run ./examples/overheads -app nbody       # Barnes-Hut (Figure 5)
//	go run ./examples/overheads -scale paper     # the paper's problem sizes
package main

import (
	"flag"
	"fmt"
	"log"

	"zsim"
)

func main() {
	app := flag.String("app", "is", "application: cholesky | is | maxflow | nbody")
	scale := flag.String("scale", "small", "problem scale: small | paper")
	procs := flag.Int("procs", 16, "processors")
	flag.Parse()
	sc, err := zsim.ParseScale(*scale)
	if err != nil {
		log.Fatal(err)
	}

	params := zsim.DefaultParams(*procs)
	fig := &zsim.Figure{Title: fmt.Sprintf("%s on %d processors (%s scale)", *app, *procs, *scale)}
	for _, kind := range zsim.FigureKinds() {
		res, err := zsim.RunBenchmark(*app, sc, kind, params)
		if err != nil {
			log.Fatal(err)
		}
		fig.Results = append(fig.Results, res)
		fmt.Printf("ran %-8s exec=%-10d overhead=%5.2f%%\n", kind, res.ExecTime, res.OverheadPct())
	}
	fmt.Println()
	fmt.Print(fig.Render())
}
