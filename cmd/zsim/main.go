// Command zsim runs one of the paper's benchmark applications on one
// simulated memory system and prints the execution-time breakdown.
//
// Usage:
//
//	zsim -app is -system rcinv -procs 16 -scale small
//	zsim -app cholesky -system zmc -scale paper
//	zsim -app nbody -all            # all five figure systems
//	zsim -litmus                    # litmus suite on every memory system
//	zsim -app is -system rcinv -check   # run with the conformance checker
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"zsim"
	"zsim/internal/prof"
)

func main() {
	var (
		app      = flag.String("app", "is", "application: cholesky | is | maxflow | nbody | sor")
		system   = flag.String("system", "rcinv", "memory system: zmc | pram | scinv | rcinv | rcupd | rccomp | rcadapt")
		procs    = flag.Int("procs", 16, "number of processors")
		scale    = flag.String("scale", "small", "problem scale: small | paper")
		all      = flag.Bool("all", false, "run the five figure systems and print the comparison")
		verbose  = flag.Bool("v", false, "print per-processor breakdowns")
		traceN   = flag.Int("trace", 0, "record the last N events and print the hottest cache lines")
		topo     = flag.String("topology", "mesh", "interconnect: mesh | torus | hypercube | xbar | bus")
		threads  = flag.Int("threads", 1, "hardware threads per node (procs must be divisible)")
		pfile    = flag.String("params", "", "JSON parameter file (overrides the other machine flags)")
		asJSON   = flag.Bool("json", false, "emit the result as JSON instead of text")
		expID    = flag.String("exp", "", "run one indexed experiment (E1..E20, S1..S4) and exit")
		scaling  = flag.String("scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
		litmus   = flag.Bool("litmus", false, "run the litmus suite on every memory system and exit")
		chkFlag  = flag.Bool("check", false, "attach the memory-consistency conformance checker")
		parallel = flag.Int("parallel", runtime.NumCPU(), "max simulations run concurrently for -all and -litmus (1 = serial; output is identical at any setting)")
		withMet  = flag.Bool("metrics", false, "collect per-run metrics and print the snapshot after the run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-GC snapshot) to this file on exit")
	)
	flag.Parse()
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "zsim: profile:", err)
		}
	}()
	zsim.SetParallelism(*parallel)
	if *withMet {
		zsim.EnableMetrics(true)
		zsim.ResetGlobalMetrics()
	}

	var params zsim.Params
	if *pfile != "" {
		data, err := os.ReadFile(*pfile)
		if err != nil {
			fatal(err)
		}
		params, err = zsim.ParamsFromJSON(data)
		if err != nil {
			fatal(err)
		}
	} else {
		params = zsim.DefaultMTParams(*procs, *threads)
		params.Topology = *topo
	}
	if err := params.Validate(); err != nil {
		fatal(err)
	}
	sc := zsim.Scale(*scale)

	printMetrics := func() {
		if *withMet {
			fmt.Println("\nmetrics:")
			fmt.Print(zsim.GlobalMetrics().String())
		}
	}

	if *expID != "" {
		var sprocs []int
		for _, f := range strings.Split(*scaling, ",") {
			f = strings.TrimSpace(f)
			if f == "" {
				continue
			}
			n, err := strconv.Atoi(f)
			if err != nil || n < 1 {
				fatal(fmt.Errorf("bad -scaling-procs entry %q", f))
			}
			sprocs = append(sprocs, n)
		}
		e, err := zsim.FindExperimentScaled(*expID, sprocs)
		if err != nil {
			fatal(err)
		}
		art, err := e.Run(sc, params)
		if err != nil {
			fatal(err)
		}
		fmt.Print(art.Render())
		printMetrics()
		return
	}

	if *litmus {
		rs, err := zsim.RunLitmusSuite(zsim.Kinds(), params)
		if err != nil {
			fatal(err)
		}
		fmt.Print(zsim.LitmusReport(rs))
		printMetrics()
		if !zsim.LitmusOk(rs) {
			os.Exit(1)
		}
		return
	}

	if *all {
		fig := &zsim.Figure{Title: fmt.Sprintf("%s (%s scale, %d processors)", *app, sc, *procs)}
		kinds := zsim.FigureKinds()
		results, err := zsim.RunGrid(len(kinds), func(i int) (*zsim.Result, error) {
			return zsim.RunBenchmark(*app, sc, kinds[i], params)
		})
		if err != nil {
			fatal(err)
		}
		fig.Results = results
		fmt.Print(fig.Render())
		printMetrics()
		return
	}

	bench, err := zsim.NewBenchmark(*app, sc)
	if err != nil {
		fatal(err)
	}
	m, err := zsim.NewMachine(zsim.Kind(*system), params)
	if err != nil {
		fatal(err)
	}
	var rec *zsim.Trace
	if *traceN > 0 {
		rec = m.EnableTrace(*traceN)
	}
	var chk *zsim.Checker
	if *chkFlag {
		chk = m.EnableCheck()
	}
	res, err := zsim.RunAppOn(bench, m)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := res.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	fmt.Printf("application:   %s (%s scale)\n", res.App, sc)
	fmt.Printf("memory system: %s, %d processors\n", res.System, params.Procs)
	fmt.Printf("execution:     %d cycles\n", res.ExecTime)
	fmt.Printf("read stall:    %d cycles\n", res.TotalReadStall())
	fmt.Printf("write stall:   %d cycles\n", res.TotalWriteStall())
	fmt.Printf("buffer flush:  %d cycles\n", res.TotalBufferFlush())
	fmt.Printf("sync wait:     %d cycles (inherent)\n", res.TotalSyncWait())
	fmt.Printf("overhead:      %.2f%% of aggregate execution time\n", res.OverheadPct())
	fmt.Printf("traffic:       %d messages, %d bytes\n", res.Counters.Messages, res.Counters.Bytes)
	if rec != nil {
		fmt.Printf("\nhottest cache lines (of the last %d traced events):\n", *traceN)
		for _, h := range rec.HotLines(params.LineSize, 10) {
			fmt.Println("  " + h.String())
		}
	}
	if *verbose {
		fmt.Println("\nper-processor breakdown (cycles):")
		fmt.Printf("%4s %12s %12s %12s %12s %12s\n", "proc", "compute", "read-stall", "write-stall", "buf-flush", "sync-wait")
		for i, p := range res.Procs {
			fmt.Printf("%4d %12d %12d %12d %12d %12d\n", i, p.Compute, p.ReadStall, p.WriteStall, p.BufferFlush, p.SyncWait)
		}
	}
	printMetrics()
	if chk != nil {
		events, reads, writes, audits := chk.Stats()
		fmt.Printf("\nconformance:   %d events validated (%d reads, %d writes, %d audits)\n", events, reads, writes, audits)
		if chk.Ok() {
			fmt.Println("conformance:   ok")
		} else {
			for _, v := range chk.Violations() {
				fmt.Println("conformance:   VIOLATION:", v)
			}
			fatal(chk.Err())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zsim:", err)
	os.Exit(1)
}
