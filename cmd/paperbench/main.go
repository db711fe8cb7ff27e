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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"zsim"
	"zsim/internal/prof"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one paperbench command line, writing results to stdout and
// diagnostics to stderr, and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.String("scale", "small", "problem scale: small | paper")
		procs    = fs.Int("procs", 16, "number of processors")
		fig      = fs.Int("fig", 0, "regenerate only this figure (2-5)")
		table    = fs.Int("table", 0, "regenerate only this table (1)")
		csv      = fs.Bool("csv", false, "emit tables as CSV")
		md       = fs.Bool("md", false, "emit tables as markdown")
		svgDir   = fs.String("svg", "", "also write each figure as an SVG into this directory")
		expID    = fs.String("exp", "", "run a single experiment by ID (E1..E20, S1..S4)")
		scaling  = fs.String("scaling-procs", "", "comma-separated machine sizes for the S-family scalability experiments (empty = 64,256,1024)")
		list     = fs.Bool("list", false, "list the experiment index and exit")
		claims   = fs.Bool("claims", false, "machine-check the paper's claims and print the verdicts")
		matrix   = fs.Bool("matrix", false, "print the overhead% matrix: every app on every system")
		conf     = fs.Bool("conformance", false, "run every app on every system with the conformance checker")
		parallel = fs.Int("parallel", runtime.NumCPU(), "max simulations run concurrently (1 = serial; output is identical at any setting)")
		withMet  = fs.Bool("metrics", false, "collect and print the global metrics snapshot")
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
		fmt.Fprintln(stderr, "paperbench:", err)
		return 1
	}

	scalingProcs, err := parseProcsList(*scaling)
	if err != nil {
		return fatal(err)
	}
	sc, err := zsim.ParseScale(*scale)
	if err != nil {
		return fatal(err)
	}
	if *table != 0 && *table != 1 {
		return fatal(fmt.Errorf("no table %d in the paper (want 1)", *table))
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, "paperbench: profile:", err)
		}
	}()

	if *withMet {
		zsim.EnableMetrics(true)
		zsim.ResetGlobalMetrics()
	}

	zsim.SetParallelism(*parallel)
	params := zsim.DefaultParams(*procs)
	emitTable := func(t *zsim.Table) {
		switch {
		case *csv:
			fmt.Fprint(stdout, t.CSV())
		case *md:
			fmt.Fprint(stdout, t.Markdown())
		default:
			fmt.Fprint(stdout, t.Render())
		}
		fmt.Fprintln(stdout)
	}
	emitArtifact := func(id string, art interface {
		Render() string
		Markdown() string
	}) error {
		if t, ok := art.(*zsim.Table); ok {
			emitTable(t)
			return nil
		}
		// Figures have no CSV form.
		if *md {
			fmt.Fprint(stdout, art.Markdown())
		} else {
			fmt.Fprint(stdout, art.Render())
		}
		fmt.Fprintln(stdout)
		if f, ok := art.(*zsim.Figure); ok && *svgDir != "" {
			path := filepath.Join(*svgDir, fmt.Sprintf("%s.svg", id))
			if err := os.WriteFile(path, []byte(f.SVG()), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "wrote %s\n\n", path)
		}
		return nil
	}
	runClaims := func() (bool, error) {
		t, allOK, err := zsim.EvaluateClaims(sc, params)
		if err != nil {
			return false, err
		}
		emitTable(t)
		return allOK, nil
	}

	ok := true
	switch {
	case *conf:
		t, pass, err := zsim.ConformanceSweep(sc, params)
		if err != nil {
			return fatal(err)
		}
		emitTable(t)
		ok = pass
	case *matrix:
		t, err := zsim.SummaryMatrix(sc, params)
		if err != nil {
			return fatal(err)
		}
		emitTable(t)
	case *claims:
		if ok, err = runClaims(); err != nil {
			return fatal(err)
		}
	case *list:
		for _, e := range zsim.Experiments() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
		for _, e := range zsim.ScalingExperiments(scalingProcs) {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Title)
		}
	case *expID != "":
		e, err := zsim.FindExperimentScaled(*expID, scalingProcs)
		if err != nil {
			return fatal(err)
		}
		art, err := e.Run(sc, params)
		if err != nil {
			return fatal(err)
		}
		if err := emitArtifact(e.ID, art); err != nil {
			return fatal(err)
		}
	case *fig != 0:
		f, err := zsim.PaperFigure(*fig, sc, params)
		if err != nil {
			return fatal(err)
		}
		if err := emitArtifact(fmt.Sprintf("figure%d", *fig), f); err != nil {
			return fatal(err)
		}
	case *table == 1:
		t, _, err := zsim.PaperTable1(sc, params)
		if err != nil {
			return fatal(err)
		}
		emitTable(t)
	default:
		// The complete regeneration: every indexed experiment, then the
		// machine-checked claim verdicts.
		for _, e := range zsim.Experiments() {
			fmt.Fprintf(stdout, "--- %s: %s ---\n", e.ID, e.Title)
			art, err := e.Run(sc, params)
			if err != nil {
				return fatal(err)
			}
			if err := emitArtifact(e.ID, art); err != nil {
				return fatal(err)
			}
		}
		if ok, err = runClaims(); err != nil {
			return fatal(err)
		}
	}
	if *withMet {
		fmt.Fprintln(stdout, "--- metrics ---")
		fmt.Fprint(stdout, zsim.GlobalMetrics().String())
	}
	if !ok {
		return 1
	}
	return 0
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
