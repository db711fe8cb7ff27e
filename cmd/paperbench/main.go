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
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zsim"
	"zsim/internal/benchrec"
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
		benchOut = flag.String("bench-json", "", "with the full regeneration: write a machine-readable timing/throughput record (BENCH_*.json) to this path")
		withMet  = flag.Bool("metrics", false, "collect and print the global metrics snapshot (implied by -bench-json)")
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

	if *withMet || *benchOut != "" {
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

	switch {
	case *conf:
		t, pass, err := zsim.ConformanceSweep(sc, params)
		check(err)
		emitTable(t)
		if !pass {
			os.Exit(1)
		}
	case *matrix:
		t, err := zsim.SummaryMatrix(sc, params)
		check(err)
		emitTable(t)
	case *claims:
		if !runClaims() {
			os.Exit(1)
		}
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
		expStart := time.Now()
		art, err := e.Run(sc, params)
		check(err)
		emitArtifact(e.ID, art)
		if *benchOut != "" {
			rec := benchrec.Record{
				Scale:      *scale,
				Procs:      *procs,
				Parallel:   *parallel,
				GOMAXPROCS: runtime.GOMAXPROCS(0),
				NumCPU:     runtime.NumCPU(),
				Experiments: []benchrec.Entry{
					{ID: e.ID, Title: e.Title, WallMS: msSince(expStart)},
				},
			}
			rec.TotalWallMS = rec.Experiments[0].WallMS
			if c, ok := art.(interface{ CurveData() benchrec.Curve }); ok {
				rec.Curves = append(rec.Curves, c.CurveData())
			}
			if zsim.MetricsEnabled() {
				snap := zsim.GlobalMetrics()
				rec.Metrics = &snap
			}
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(*benchOut))
			fmt.Printf("wrote %s (%s, %.0f ms)\n", *benchOut, e.ID, rec.TotalWallMS)
		}
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
		// machine-checked claim verdicts. With -bench-json, each phase is
		// timed and the throughput record written for the perf trajectory.
		rec := benchrec.Record{
			Scale:      *scale,
			Procs:      *procs,
			Parallel:   *parallel,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		}
		start := time.Now()
		for _, e := range zsim.Experiments() {
			fmt.Printf("--- %s: %s ---\n", e.ID, e.Title)
			expStart := time.Now()
			art, err := e.Run(sc, params)
			check(err)
			rec.Experiments = append(rec.Experiments, benchrec.Entry{
				ID: e.ID, Title: e.Title, WallMS: msSince(expStart),
			})
			emitArtifact(e.ID, art)
		}
		claimsStart := time.Now()
		ok := runClaims()
		rec.ClaimsWallMS = msSince(claimsStart)
		rec.TotalWallMS = msSince(start)
		if rec.TotalWallMS > 0 {
			rec.ExperimentsPerSec = float64(len(rec.Experiments)) / (rec.TotalWallMS / 1000)
		}
		if zsim.MetricsEnabled() {
			snap := zsim.GlobalMetrics()
			rec.Metrics = &snap
			fmt.Println("--- metrics ---")
			fmt.Print(snap.String())
		}
		if *benchOut != "" {
			rec.Timestamp = time.Now().UTC().Format(time.RFC3339)
			check(rec.Write(*benchOut))
			fmt.Printf("wrote %s (%d experiments, %.0f ms total, %.2f experiments/s at -parallel %d)\n",
				*benchOut, len(rec.Experiments), rec.TotalWallMS, rec.ExperimentsPerSec, *parallel)
		}
		if !ok {
			os.Exit(1)
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1000 }

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
