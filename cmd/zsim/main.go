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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"zsim"
	"zsim/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one zsim command line, writing results to stdout and
// diagnostics to stderr, and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app      = fs.String("app", "is", "application: cholesky | is | maxflow | nbody | sor")
		system   = fs.String("system", "rcinv", "memory system: zmc | pram | scinv | rcinv | rcupd | rccomp | rcadapt | rcsync")
		procs    = fs.Int("procs", 16, "number of processors")
		scale    = fs.String("scale", "small", "problem scale: small | paper")
		all      = fs.Bool("all", false, "run the five figure systems and print the comparison")
		verbose  = fs.Bool("v", false, "print per-processor breakdowns")
		traceN   = fs.Int("trace", 0, "record the last N events and print the hottest cache lines")
		topo     = fs.String("topology", "mesh", "interconnect: mesh | torus | hypercube | xbar | bus | hier")
		threads  = fs.Int("threads", 1, "hardware threads per node (procs must be divisible)")
		pfile    = fs.String("params", "", "JSON parameter file (overrides the other machine flags)")
		asJSON   = fs.Bool("json", false, "emit the result as JSON instead of text")
		expID    = fs.String("exp", "", "run one indexed experiment (E1..E20, S1..S4) and exit")
		scaling  = fs.String("scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
		litmus   = fs.Bool("litmus", false, "run the litmus suite on every memory system and exit")
		chkFlag  = fs.Bool("check", false, "attach the memory-consistency conformance checker")
		parallel = fs.Int("parallel", runtime.NumCPU(), "max simulations run concurrently for -all and -litmus (1 = serial; output is identical at any setting)")
		withMet  = fs.Bool("metrics", false, "collect per-run metrics and print the snapshot after the run")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = fs.String("memprofile", "", "write a heap profile (post-GC snapshot) to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "zsim:", err)
		return 1
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "zsim: profile:", err)
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
			return fatal(err)
		}
		params, err = zsim.ParamsFromJSON(data)
		if err != nil {
			return fatal(err)
		}
	} else {
		// DefaultMTParams panics on a thread count that does not divide
		// the processors; report it as Params.Validate would.
		if *threads <= 0 || *procs%*threads != 0 {
			return fatal(fmt.Errorf("HWThreads = %d must divide Procs = %d", *threads, *procs))
		}
		params = zsim.DefaultMTParams(*procs, *threads)
		params.Topology = *topo
	}
	if err := params.Validate(); err != nil {
		return fatal(err)
	}
	sc, err := zsim.ParseScale(*scale)
	if err != nil {
		return fatal(err)
	}
	scalingProcs, err := zsim.ParseProcs(*scaling)
	if err != nil {
		return fatal(fmt.Errorf("-scaling-procs: %w", err))
	}

	printMetrics := func() {
		if *withMet {
			fmt.Fprintln(stdout, "\nmetrics:")
			fmt.Fprint(stdout, zsim.GlobalMetrics().String())
		}
	}

	if *expID != "" {
		e, err := zsim.FindExperimentScaled(*expID, scalingProcs)
		if err != nil {
			return fatal(err)
		}
		art, err := e.Run(sc, params)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, art.Render())
		printMetrics()
		return 0
	}

	if *litmus {
		rs, err := zsim.RunLitmusSuite(zsim.Kinds(), params)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprint(stdout, zsim.LitmusReport(rs))
		printMetrics()
		if !zsim.LitmusOk(rs) {
			return 1
		}
		return 0
	}

	if *all {
		fig := &zsim.Figure{Title: fmt.Sprintf("%s (%s scale, %d processors)", *app, sc, params.Procs)}
		kinds := zsim.FigureKinds()
		results, err := zsim.RunGrid(len(kinds), func(i int) (*zsim.Result, error) {
			return zsim.RunBenchmark(*app, sc, kinds[i], params)
		})
		if err != nil {
			return fatal(err)
		}
		fig.Results = results
		fmt.Fprint(stdout, fig.Render())
		printMetrics()
		return 0
	}

	bench, err := zsim.NewBenchmark(*app, sc)
	if err != nil {
		return fatal(err)
	}
	m, err := zsim.NewMachine(zsim.Kind(*system), params)
	if err != nil {
		return fatal(err)
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
		return fatal(err)
	}
	// verdict reports the conformance checker's violations on w and
	// returns the exit status they call for.
	verdict := func(w io.Writer) int {
		if chk == nil || chk.Ok() {
			return 0
		}
		for _, v := range chk.Violations() {
			fmt.Fprintln(w, "conformance:   VIOLATION:", v)
		}
		return fatal(chk.Err())
	}
	if *asJSON {
		data, err := res.JSON()
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, string(data))
		return verdict(stderr)
	}
	fmt.Fprintf(stdout, "application:   %s (%s scale)\n", res.App, sc)
	fmt.Fprintf(stdout, "memory system: %s, %d processors\n", res.System, params.Procs)
	fmt.Fprintf(stdout, "execution:     %d cycles\n", res.ExecTime)
	fmt.Fprintf(stdout, "read stall:    %d cycles\n", res.TotalReadStall())
	fmt.Fprintf(stdout, "write stall:   %d cycles\n", res.TotalWriteStall())
	fmt.Fprintf(stdout, "buffer flush:  %d cycles\n", res.TotalBufferFlush())
	fmt.Fprintf(stdout, "sync wait:     %d cycles (inherent)\n", res.TotalSyncWait())
	fmt.Fprintf(stdout, "overhead:      %.2f%% of aggregate execution time\n", res.OverheadPct())
	fmt.Fprintf(stdout, "traffic:       %d messages, %d bytes\n", res.Counters.Messages, res.Counters.Bytes)
	if rec != nil {
		fmt.Fprintf(stdout, "\nhottest cache lines (of the last %d traced events):\n", *traceN)
		for _, h := range rec.HotLines(params.LineSize, 10) {
			fmt.Fprintln(stdout, "  "+h.String())
		}
	}
	if *verbose {
		fmt.Fprintln(stdout, "\nper-processor breakdown (cycles):")
		fmt.Fprintf(stdout, "%4s %12s %12s %12s %12s %12s\n", "proc", "compute", "read-stall", "write-stall", "buf-flush", "sync-wait")
		for i, p := range res.Procs {
			fmt.Fprintf(stdout, "%4d %12d %12d %12d %12d %12d\n", i, p.Compute, p.ReadStall, p.WriteStall, p.BufferFlush, p.SyncWait)
		}
	}
	printMetrics()
	if chk == nil {
		return 0
	}
	events, reads, writes, audits := chk.Stats()
	fmt.Fprintf(stdout, "\nconformance:   %d events validated (%d reads, %d writes, %d audits)\n", events, reads, writes, audits)
	if chk.Ok() {
		fmt.Fprintln(stdout, "conformance:   ok")
	}
	return verdict(stdout)
}
