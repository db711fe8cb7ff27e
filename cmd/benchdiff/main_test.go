package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"zsim/internal/benchrec"
)

func TestParseArgs(t *testing.T) {
	cases := []struct {
		name string
		argv []string
		want cliArgs
		err  bool
	}{
		{
			name: "flags after positionals (documented invocation)",
			argv: []string{"BENCH_baseline.json", "BENCH_ci.json", "-tolerance", "25%"},
			want: cliArgs{oldPath: "BENCH_baseline.json", newPath: "BENCH_ci.json", tolerance: 0.25, metricTolerance: 0.25, minMS: 10},
		},
		{
			name: "flags before positionals",
			argv: []string{"-tolerance", "0.10", "-min-ms", "5", "a.json", "b.json"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.10, metricTolerance: 0.10, minMS: 5},
		},
		{
			name: "metric tolerance separate",
			argv: []string{"a.json", "b.json", "-metric-tolerance", "50%"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0.5, minMS: 10},
		},
		{
			name: "defaults",
			argv: []string{"a.json", "b.json"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0.25, minMS: 10},
		},
		{
			name: "metrics-only identity gate",
			argv: []string{"a.json", "b.json", "-metrics-only", "-metric-tolerance", "0%"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0, minMS: 10, metricsOnly: true},
		},
		{
			name: "explicit zero metric tolerance kept",
			argv: []string{"a.json", "b.json", "-metric-tolerance", "0%"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0, minMS: 10},
		},
		{
			name: "metrics-only defaults to exact",
			argv: []string{"a.json", "b.json", "-metrics-only"},
			want: cliArgs{oldPath: "a.json", newPath: "b.json", tolerance: 0.25, metricTolerance: 0, minMS: 10, metricsOnly: true},
		},
		{name: "one file", argv: []string{"a.json"}, err: true},
		{name: "three files", argv: []string{"a", "b", "c"}, err: true},
		{name: "unknown flag", argv: []string{"a.json", "b.json", "-bogus"}, err: true},
		{name: "missing value", argv: []string{"a.json", "b.json", "-tolerance"}, err: true},
		{name: "bad tolerance", argv: []string{"a.json", "b.json", "-tolerance", "wide"}, err: true},
		{name: "help", argv: []string{"-h"}, err: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := parseArgs(c.argv)
			if (err != nil) != c.err {
				t.Fatalf("parseArgs(%v) err = %v, want err=%v", c.argv, err, c.err)
			}
			if err != nil {
				return
			}
			if *got != c.want {
				t.Fatalf("parseArgs(%v) = %+v, want %+v", c.argv, *got, c.want)
			}
		})
	}
}

// TestExplicitZeroMetricToleranceCatchesDrift is the regression test for an
// explicit -metric-tolerance 0% being widened to -tolerance outside
// -metrics-only mode: a copy of the committed baseline with mesh.msgs
// raised 10% must fail at 0% and pass at the default 25%.
func TestExplicitZeroMetricToleranceCatchesDrift(t *testing.T) {
	base := filepath.Join("..", "..", "BENCH_baseline.json")
	rec, err := benchrec.Load(base)
	if err != nil {
		t.Fatal(err)
	}
	msgs := rec.Metrics.Counters["mesh.msgs"]
	if msgs == 0 {
		t.Fatal("baseline has no mesh.msgs counter")
	}
	rec.Metrics.Counters["mesh.msgs"] = msgs + msgs/10
	drift := filepath.Join(t.TempDir(), "drift.json")
	if err := rec.Write(drift); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		argv []string
		want int
	}{
		{[]string{base, drift, "-metric-tolerance", "0%"}, 1},
		{[]string{base, drift, "-metric-tolerance", "1%"}, 1},
		{[]string{base, drift, "-metrics-only", "-metric-tolerance", "0%"}, 1},
		{[]string{base, drift}, 0},
	} {
		var out, errOut bytes.Buffer
		if got := run(c.argv, &out, &errOut); got != c.want {
			t.Errorf("benchdiff %s exited %d, want %d\n%s%s", strings.Join(c.argv[2:], " "), got, c.want, out.String(), errOut.String())
		}
	}
}
