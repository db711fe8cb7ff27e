// Command paperbench regenerates the paper's evaluation: every figure and
// table, the ablation sweeps behind its architectural-implications
// discussion, and a machine-checked verdict on the paper's qualitative
// claims.
//
// Usage:
//
//	paperbench                      # everything at small scale
//	paperbench -scale paper         # the paper's problem sizes (slow)
//	paperbench -fig 2               # just Figure 2 (Cholesky)
//	paperbench -table 1             # just Table 1
//	paperbench -list                # the experiment index (E1..E20)
//	paperbench -exp E15             # one experiment
//	paperbench -claims              # machine-check the paper's claims
//	paperbench -svg DIR             # also write figures as SVG
//	paperbench -csv | -md           # CSV or markdown tables
//	paperbench -exp S2 -metrics     # one experiment plus its metric snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"zsim"
	"zsim/internal/prof"
)

func main() {
	var (
		scale    = flag.String("scale", "small", "problem scale: small | paper")
		procs    = flag.Int("procs", 16, "number of processors")
		fig      = flag.Int("fig", 0, "regenerate only this figure (2-5)")
		table    = flag.Int("table", 0, "regenerate only this table (1)")
		csv      = flag.Bool("csv", false, "emit tables as CSV")
		md       = flag.Bool("md", false, "emit tables as markdown")
		svgDir   = flag.String("svg", "", "also write each figure as an SVG into this directory")
		expID    = flag.String("exp", "", "run a single experiment by ID (E1..E20, S1..S4)")
		scaling  = flag.String("scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
		list     = flag.Bool("list", false, "list the experiment index and exit")
		claims   = flag.Bool("claims", false, "machine-check the paper's claims and print the verdicts")
		matrix   = flag.Bool("matrix", false, "print the overhead%% matrix: every app on every system")
		conf     = flag.Bool("conformance", false, "run every app on every system with the conformance checker")
		parallel = flag.Int("parallel", runtime.NumCPU(), "max simulations run concurrently (1 = serial; output is identical at any setting)")
		withMet  = flag.Bool("metrics", false, "collect and print the global metrics snapshot")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile (post-GC snapshot) to this file on exit")
	)
	flag.Parse()

	scalingProcs, err := parseProcsList(*scaling)
	check(err)

	stopProf, err := prof.Start(*cpuProf, *memProf)
	check(err)
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "paperbench: profile:", err)
		}
	}()

	if *withMet {
		zsim.EnableMetrics(true)
		zsim.ResetGlobalMetrics()
	}

	zsim.SetParallelism(*parallel)
	sc := zsim.Scale(*scale)
	params := zsim.DefaultParams(*procs)
	emitTable := func(t *zsim.Table) {
		switch {
		case *csv:
			fmt.Print(t.CSV())
		case *md:
			fmt.Print(t.Markdown())
		default:
			fmt.Print(t.Render())
		}
		fmt.Println()
	}
	emitArtifact := func(id string, art interface {
		Render() string
		Markdown() string
	}) {
		if t, ok := art.(*zsim.Table); ok {
			emitTable(t)
			return
		}
		// Figures have no CSV form.
		if *md {
			fmt.Print(art.Markdown())
		} else {
			fmt.Print(art.Render())
		}
		fmt.Println()
		if f, ok := art.(*zsim.Figure); ok && *svgDir != "" {
			path := filepath.Join(*svgDir, fmt.Sprintf("%s.svg", id))
			check(os.WriteFile(path, []byte(f.SVG()), 0o644))
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	runClaims := func() bool {
		t, allOK, err := zsim.EvaluateClaims(sc, params)
		check(err)
		emitTable(t)
		return allOK
	}

	ok := true
	switch {
	case *conf:
		t, pass, err := zsim.ConformanceSweep(sc, params)
		check(err)
		emitTable(t)
		ok = pass
	case *matrix:
		t, err := zsim.SummaryMatrix(sc, params)
		check(err)
		emitTable(t)
	case *claims:
		ok = runClaims()
	case *list:
		for _, e := range zsim.Experiments() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range zsim.ScalingExperiments(scalingProcs) {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
	case *expID != "":
		e, err := zsim.FindExperimentScaled(*expID, scalingProcs)
		check(err)
		art, err := e.Run(sc, params)
		check(err)
		emitArtifact(e.ID, art)
	case *fig != 0:
		f, err := zsim.PaperFigure(*fig, sc, params)
		check(err)
		emitArtifact(fmt.Sprintf("figure%d", *fig), f)
	case *table == 1:
		t, _, err := zsim.PaperTable1(sc, params)
		check(err)
		emitTable(t)
	default:
		// The complete regeneration: every indexed experiment, then the
		// machine-checked claim verdicts.
		for _, e := range zsim.Experiments() {
			fmt.Printf("--- %s: %s ---\n", e.ID, e.Title)
			art, err := e.Run(sc, params)
			check(err)
			emitArtifact(e.ID, art)
		}
		ok = runClaims()
	}
	if *withMet {
		fmt.Println("--- metrics ---")
		fmt.Print(zsim.GlobalMetrics().String())
	}
	if !ok {
		os.Exit(1)
	}
}

// parseProcsList parses a comma-separated machine-size list ("64,256"); an
// empty string selects the workload package's defaults (nil).
func parseProcsList(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -scaling-procs entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}
