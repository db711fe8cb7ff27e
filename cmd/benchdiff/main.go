// Command benchdiff compares two BENCH_*.json records (written by
// paperbench -bench-json) and exits nonzero when the new record regresses
// past tolerance: per-experiment wall time, total wall time, throughput, or
// any watched simulated metric (scheduler switches, misses, traffic, stall
// cycles). CI's bench-gate job runs it against the blessed baseline.
//
// Usage:
//
//	benchdiff OLD.json NEW.json [-tolerance 25%] [-metric-tolerance 10%] [-min-ms 10] [-metrics-only]
//
// Flags may appear before or after the two file arguments.
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"zsim/internal/benchrec"
)

const usage = `usage: benchdiff OLD.json NEW.json [flags]

Compares two BENCH_*.json records and exits 1 on regression.

  -tolerance T         allowed slowdown for timings/throughput (default 25%)
  -metric-tolerance T  allowed drift for watched simulated metrics, taken
                       literally (0% = exact; default: -tolerance, or 0%
                       with -metrics-only)
  -min-ms MS           per-experiment floor: entries with a baseline below
                       MS ms are informational only (default 10)
  -metrics-only        compare only the watched simulated metrics; timings and
                       throughput are informational, and metric drift in either
                       direction past -metric-tolerance fails (the identity gate
                       for runs that legitimately differ in wall time)

T accepts "25%" or a fraction like "0.25".
`

// cliArgs is the parsed command line. The standard flag package stops at
// the first positional argument, but the documented invocation puts the two
// files first, so arguments are scanned by hand. metricTolerance is always
// resolved: parseArgs fills in its default.
type cliArgs struct {
	oldPath, newPath string
	tolerance        float64
	metricTolerance  float64
	minMS            float64
	metricsOnly      bool
}

func parseArgs(argv []string) (*cliArgs, error) {
	a := &cliArgs{tolerance: 0.25, metricTolerance: -1, minMS: 10}
	var files []string
	for i := 0; i < len(argv); i++ {
		arg := argv[i]
		flagVal := func() (string, error) {
			if i+1 >= len(argv) {
				return "", fmt.Errorf("flag %s needs a value", arg)
			}
			i++
			return argv[i], nil
		}
		switch arg {
		case "-tolerance", "--tolerance":
			v, err := flagVal()
			if err != nil {
				return nil, err
			}
			t, err := benchrec.ParseTolerance(v)
			if err != nil {
				return nil, err
			}
			a.tolerance = t
		case "-metric-tolerance", "--metric-tolerance":
			v, err := flagVal()
			if err != nil {
				return nil, err
			}
			t, err := benchrec.ParseTolerance(v)
			if err != nil {
				return nil, err
			}
			a.metricTolerance = t
		case "-metrics-only", "--metrics-only":
			a.metricsOnly = true
		case "-min-ms", "--min-ms":
			v, err := flagVal()
			if err != nil {
				return nil, err
			}
			ms, err := strconv.ParseFloat(v, 64)
			if err != nil || ms < 0 {
				return nil, fmt.Errorf("bad -min-ms %q", v)
			}
			a.minMS = ms
		case "-h", "--help", "-help":
			return nil, errHelp
		default:
			if len(arg) > 1 && arg[0] == '-' {
				return nil, fmt.Errorf("unknown flag %s", arg)
			}
			files = append(files, arg)
		}
	}
	if len(files) != 2 {
		return nil, fmt.Errorf("need exactly two record files, got %d", len(files))
	}
	a.oldPath, a.newPath = files[0], files[1]
	if a.metricTolerance < 0 {
		a.metricTolerance = a.tolerance
		if a.metricsOnly {
			a.metricTolerance = 0
		}
	}
	return a, nil
}

var errHelp = fmt.Errorf("help requested")

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command: it compares the two records named in argv,
// writes the report to stdout, and returns the exit status (0 clean,
// 1 regression, 2 usage or load error).
func run(argv []string, stdout, stderr io.Writer) int {
	a, err := parseArgs(argv)
	if err != nil {
		if err == errHelp {
			fmt.Fprint(stdout, usage)
			return 0
		}
		fmt.Fprintf(stderr, "benchdiff: %v\n%s", err, usage)
		return 2
	}
	old, err := benchrec.Load(a.oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	cur, err := benchrec.Load(a.newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	opts := benchrec.Options{
		Tolerance:       a.tolerance,
		MetricTolerance: a.metricTolerance,
		MinWallMS:       a.minMS,
		MetricsOnly:     a.metricsOnly,
	}
	deltas, regressed := benchrec.Diff(old, cur, opts)

	fmt.Fprintf(stdout, "benchdiff %s -> %s (tolerance %.0f%%, metric tolerance %.4g%%, min %gms)\n\n",
		a.oldPath, a.newPath, a.tolerance*100, a.metricTolerance*100, a.minMS)
	fmt.Fprint(stdout, benchrec.Format(deltas, opts))
	if regressed {
		fmt.Fprintln(stdout, "\nREGRESSION: at least one quantity crossed tolerance (marked '!').")
		return 1
	}
	fmt.Fprintln(stdout, "\nOK: no regression past tolerance.")
	return 0
}
