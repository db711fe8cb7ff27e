// Command zlint runs the project-native static-analysis suite that
// enforces the simulator's determinism and concurrency invariants:
//
//	zlint ./... ./bench/...        lint every package, the bench module too
//	zlint ./internal/sim           lint one package
//	zlint -list                    describe the analyzers and exit
//	zlint -json ./...              findings as a JSON array
//
// Patterns follow the go tool and resolve against the working directory;
// one that matches no package exits 2. Findings are printed one per line
// as "file:line: analyzer: message", the file relative to the module root,
// and any unsuppressed finding exits 1. A finding is suppressed with a
// trailing or preceding comment
//
//	//zlint:ignore <analyzer> <reason>
//
// where the reason is mandatory and the suppression must actually match a
// finding — malformed and unused suppressions are themselves findings.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"zsim/internal/lint"
)

// jsonFinding fixes the field order of -json output: encoding/json emits
// struct fields in declaration order, so consumers can diff the output
// textually as well as structurally.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one zlint command line, writing findings to stdout and
// diagnostics to stderr, and returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "describe the analyzers and exit")
	asJSON := fs.Bool("json", false, "emit findings as a JSON array (stable field order, one object per finding)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: zlint [-list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "zlint:", err)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers {
			scope := "all packages"
			if a.ZoneOnly {
				scope = "deterministic zone"
			}
			fmt.Fprintf(stdout, "%-10s %-18s %s\n", a.Name, "("+scope+")", a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := lint.FindModuleRoot(".")
	if err != nil {
		return fatal(err)
	}
	pkgs, err := lint.Load(".", patterns)
	if err != nil {
		return fatal(err)
	}

	findings := lint.Run(pkgs)
	for i := range findings {
		// Report module-relative paths so the output is stable across
		// checkouts and clickable from the repo root.
		if rel, err := filepath.Rel(root, findings[i].Pos.Filename); err == nil && !filepath.IsAbs(rel) {
			findings[i].Pos.Filename = rel
		}
	}
	if *asJSON {
		out := make([]jsonFinding, 0, len(findings))
		for _, f := range findings {
			out = append(out, jsonFinding{
				File: f.Pos.Filename, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "zlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
