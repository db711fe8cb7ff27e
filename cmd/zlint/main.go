// Command zlint runs the project-native static-analysis suite that
// enforces the simulator's determinism and concurrency invariants:
//
//	zlint ./...                    lint every package in the module
//	zlint ./internal/sim           lint one package
//	zlint -list                    describe the analyzers and exit
//	zlint -json ./...              findings as a JSON array
//
// Findings are printed one per line as "file:line: analyzer: message" and
// the exit status is nonzero when any unsuppressed finding remains. A
// finding is suppressed with a trailing or preceding comment
//
//	//zlint:ignore <analyzer> <reason>
//
// where the reason is mandatory and the suppression must actually match a
// finding — malformed and unused suppressions are themselves findings.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
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
	list := flag.Bool("list", false, "describe the analyzers and exit")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array (stable field order, one object per finding)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: zlint [-list] [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers {
			scope := "all packages"
			if a.ZoneOnly {
				scope = "deterministic zone"
			}
			fmt.Printf("%-10s %-18s %s\n", a.Name, "("+scope+")", a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}

	pkgs, err := lint.NewLoader().Load(root, patterns)
	if err != nil {
		fatal(err)
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
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "zlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "zlint:", err)
	os.Exit(2)
}
