package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

// TestExpCSVMetrics runs the command as `paperbench -exp E13 -csv -metrics`:
// -csv must reach a single experiment's table, and -metrics must print the
// snapshot after it, not only after the full regeneration.
func TestExpCSVMetrics(t *testing.T) {
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	args, stdout, cmdline := os.Args, os.Stdout, flag.CommandLine
	defer func() { os.Args, os.Stdout, flag.CommandLine = args, stdout, cmdline }()
	os.Args = []string{"paperbench", "-exp", "E13", "-csv", "-metrics"}
	os.Stdout = out
	flag.CommandLine = flag.NewFlagSet("paperbench", flag.ExitOnError)

	main()

	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	got := string(b)
	if !strings.HasPrefix(got, "threads/node,streams,") {
		t.Errorf("output does not open with E13's CSV header:\n%s", got)
	}
	if !strings.Contains(got, "\n--- metrics ---\n") || !strings.Contains(got, "\nmachine.runs ") {
		t.Errorf("output has no metrics section:\n%s", got)
	}
}
