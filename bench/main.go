// Command zbench is zsim's host-time benchmark. It runs one workload, a
// fixed list of simulation cells, in a closed batch loop on runner.Grid for
// a time budget, checks every result against committed digests, and
// reports end-to-end metrics from untraced passes or, with -trace 1,
// per-layer metrics and a cost ledger from traced passes. README.md
// defines the metrics and workloads.
//
// Usage:
//
//	zbench -workload <name> [-seed N] [-seconds S] [-trace 0|1] [-spans file]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit status is 1 when any
// cell failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// goldenJSON maps every cell id to its result digest at seed 0. Regenerate
// with `go test -run TestGoldenDigests -update`.
//
//go:embed testdata/digests.json
var goldenJSON []byte

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 0, "input seed; 0 runs the default inputs, whose digests are gated against the goldens")
	seconds := fs.Float64("seconds", 25, "time budget in seconds")
	trace := fs.Int("trace", 0, "1 runs traced passes too and reports per-layer metrics and the cost ledger")
	spans := fs.String("spans", "", "with -trace 1, write the traced passes' spans to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "zbench: need -workload (one of %s), -trace 0 or 1 and -seconds > 0\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	golden, err := loadGolden()
	if err != nil {
		fmt.Fprintln(stderr, "zbench:", err)
		return 1
	}
	r, err := measure(w, options{seed: *seed, seconds: *seconds, traced: *trace == 1}, golden)
	if err != nil {
		fmt.Fprintln(stderr, "zbench:", err)
		return 1
	}
	if *spans != "" && r.opts.traced {
		if err := writeSpans(*spans, r); err != nil {
			fmt.Fprintln(stderr, "zbench:", err)
			return 1
		}
	}
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "zbench: FAIL", e)
	}
	if err := report(stdout, r); err != nil {
		fmt.Fprintln(stderr, "zbench:", err)
		return 1
	}
	if r.failed > 0 {
		return 1
	}
	return 0
}

func loadGolden() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return g, nil
}

// report prints a human-readable table, the cost ledger of a traced run,
// a one-line JSON record with sample spreads and the host fingerprint, and
// finally the one-line JSON result. An untraced run reports the end-to-end
// metrics, a traced one the per-layer metrics.
func report(out io.Writer, r *result) error {
	ms := endToEnd(r)
	if r.opts.traced {
		ms = perLayer(r)
	}
	fmt.Fprintf(out, "zbench %s: seed %d, %d untraced + %d traced passes of %d cells, parallelism %d\n",
		r.w.name, r.opts.seed, len(r.untraced()), len(r.traced()), len(r.w.cells), r.w.parallelism())
	fmt.Fprintf(out, "%-32s %-9s %14s %14s %14s %5s\n", "metric", "unit", "median", "p25", "p75", "n")
	for _, s := range ms {
		fmt.Fprintf(out, "%-32s %-9s %14.6g %14.6g %14.6g %5d\n",
			s.name, s.unit, median(s.samples), quantile(s.samples, 0.25), quantile(s.samples, 0.75), len(s.samples))
	}
	if r.opts.traced {
		med := map[string]float64{}
		for _, s := range ms {
			med[s.name] = median(s.samples)
		}
		fmt.Fprintf(out, "\ncost ledger, %s: medians over traced passes, host seconds per pass summed over cells\n", r.w.name)
		fmt.Fprintf(out, "%-24s %12s %8s  %s\n", "layer", "seconds", "of run", "how")
		for _, row := range ledger(med) {
			fmt.Fprintf(out, "%-24s %12.6f %7.1f%%  %s\n", row.name, row.seconds, 100*ratio(row.seconds, med["machine.run_s"]), row.how)
		}
	}

	type stat struct {
		Unit   string  `json:"unit"`
		Median float64 `json:"median"`
		P25    float64 `json:"p25"`
		P75    float64 `json:"p75"`
		N      int     `json:"n"`
	}
	rec := struct {
		Workload     string          `json:"workload"`
		Seed         int64           `json:"seed"`
		Passes       int             `json:"passes"`
		TracedPasses int             `json:"traced_passes"`
		Cells        int             `json:"cells"`
		Parallelism  int             `json:"parallelism"`
		Host         host            `json:"host"`
		Metrics      map[string]stat `json:"metrics"`
	}{r.w.name, r.opts.seed, len(r.untraced()), len(r.traced()), len(r.w.cells), r.w.parallelism(), fingerprint(), map[string]stat{}}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	final := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]value{}}
	for _, s := range ms {
		rec.Metrics[s.name] = stat{s.unit, median(s.samples), quantile(s.samples, 0.25), quantile(s.samples, 0.75), len(s.samples)}
		final.Metrics[s.name] = value{median(s.samples), s.unit}
	}
	rb, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	fb, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nrecord %s\n%s\n", rb, fb)
	return nil
}

// host fingerprints the machine and build a result was measured on.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
}

func fingerprint() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), CPU: "unknown", Revision: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Revision = rev
			if modified == "true" {
				h.Revision += "+dirty"
			}
		}
	}
	return h
}
