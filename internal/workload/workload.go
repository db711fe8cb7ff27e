// Package workload is the evaluation harness: it runs the paper's four
// applications on the simulated memory systems and regenerates every table
// and figure of the evaluation section (Figures 2–5 and Table 1), plus the
// parameter sweeps behind the paper's architectural-implications
// discussion.
package workload

import (
	"fmt"
	"strconv"
	"strings"

	"zsim/internal/apps"
	"zsim/internal/apps/barneshut"
	"zsim/internal/apps/cholesky"
	"zsim/internal/apps/intsort"
	"zsim/internal/apps/maxflow"
	"zsim/internal/apps/sor"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// Scale selects the problem size.
type Scale string

const (
	// ScalePaper uses the paper's exact problem sizes (slow: minutes).
	ScalePaper Scale = "paper"
	// ScaleSmall uses reduced instances with the same structure (seconds).
	ScaleSmall Scale = "small"
)

// ParseScale reads a problem scale by name, "small" or "paper", and
// rejects any other value, so that a misspelt scale never runs the wrong
// problem size.
func ParseScale(s string) (Scale, error) {
	switch sc := Scale(s); sc {
	case ScaleSmall, ScalePaper:
		return sc, nil
	}
	return "", fmt.Errorf("workload: unknown scale %q (want %q or %q)", s, ScaleSmall, ScalePaper)
}

// ParseProcs reads a comma-separated list of machine sizes, such as
// "64,256", for the scalability family. An empty string selects its
// default sizes (nil). It rejects an empty or non-positive entry, so that a
// mistyped list never runs other sizes than the ones asked for.
func ParseProcs(s string) ([]int, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	fields := strings.Split(s, ",")
	procs := make([]int, len(fields))
	for i, f := range fields {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("workload: bad machine size %q in %q (want positive integers separated by commas)", f, s)
		}
		procs[i] = n
	}
	return procs, nil
}

// AppNames lists the four applications in figure order (Figure 2..5).
func AppNames() []string { return []string{"cholesky", "is", "maxflow", "nbody"} }

// NewApp builds one of the paper's applications at the given scale.
func NewApp(name string, scale Scale) (apps.App, error) {
	small := scale == ScaleSmall
	switch name {
	case "cholesky":
		if small {
			return cholesky.New(cholesky.Small()), nil
		}
		return cholesky.New(cholesky.Paper()), nil
	case "is":
		if small {
			return intsort.New(intsort.Small()), nil
		}
		return intsort.New(intsort.Paper()), nil
	case "maxflow":
		if small {
			return maxflow.New(maxflow.Small()), nil
		}
		return maxflow.New(maxflow.Paper()), nil
	case "nbody", "barnes-hut", "barneshut":
		if small {
			return barneshut.New(barneshut.Small()), nil
		}
		return barneshut.New(barneshut.Paper()), nil
	case "sor":
		// Extra library application (not part of the paper's figures):
		// the canonical static nearest-neighbour workload.
		if small {
			return sor.New(sor.Small()), nil
		}
		return sor.New(sor.Default()), nil
	}
	return nil, fmt.Errorf("workload: unknown application %q (want one of %v)", name, AppNames())
}

// Run executes the named application on a fresh machine with the given
// memory system, verifying the output.
func Run(name string, scale Scale, kind memsys.Kind, p memsys.Params) (*stats.Result, error) {
	app, err := NewApp(name, scale)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(kind, p)
	if err != nil {
		return nil, err
	}
	res, err := apps.Run(app, m)
	if err != nil {
		return nil, fmt.Errorf("workload: %s on %s failed verification: %w", name, kind, err)
	}
	return res, nil
}

// A cell is one simulation of the evaluation: an application on a memory
// system under a parameter block. Every table and figure of the harness is
// a list of cells plus a way to print their results.
type cell struct {
	app  string
	kind memsys.Kind
	p    memsys.Params
}

// runCells runs the cells as one grid on the worker pool and returns their
// results in cell order.
func runCells(scale Scale, cells []cell) ([]*stats.Result, error) {
	return runner.Grid(len(cells), func(i int) (*stats.Result, error) {
		return Run(cells[i].app, scale, cells[i].kind, cells[i].p)
	})
}

// appCells returns every application on each memory system under p,
// application by application.
func appCells(p memsys.Params, kinds ...memsys.Kind) []cell {
	var cells []cell
	for _, app := range AppNames() {
		for _, k := range kinds {
			cells = append(cells, cell{app, k, p})
		}
	}
	return cells
}

// table renders one row per label: the label, then the values cols returns
// for row i, a float with two decimals and anything else as fmt.Sprint
// prints it.
func table(title string, head, labels []string, cols func(i int) []any) *stats.Table {
	t := &stats.Table{Title: title, Head: head}
	for i, label := range labels {
		row := []string{label}
		for _, v := range cols(i) {
			row = append(row, text(v))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// text formats one table entry, as table does.
func text(v any) string {
	if f, ok := v.(float64); ok {
		return fmt.Sprintf("%.2f", f)
	}
	return fmt.Sprint(v)
}

// pairs runs every application on machines a and b, whose app is unset,
// and renders one row per application from its two results.
func pairs(scale Scale, title string, head []string, a, b cell, cols func(a, b *stats.Result) []any) (*stats.Table, error) {
	var cells []cell
	for _, app := range AppNames() {
		a.app, b.app = app, app
		cells = append(cells, a, b)
	}
	results, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	return table(title, head, AppNames(), func(i int) []any { return cols(results[2*i], results[2*i+1]) }), nil
}

// matrix renders an application × memory system table: the entry of
// application i/len(kinds) on kinds[i%len(kinds)] is entry(i), the order
// appCells lists them in.
func matrix(title string, kinds []memsys.Kind, entry func(i int) any) *stats.Table {
	head := []string{"app \\ system"}
	for _, k := range kinds {
		head = append(head, string(k))
	}
	return table(title, head, AppNames(), func(a int) []any {
		row := make([]any, len(kinds))
		for j := range kinds {
			row[j] = entry(a*len(kinds) + j)
		}
		return row
	})
}

// figureOf maps the paper's figure numbers to applications.
var figureOf = map[int]string{2: "cholesky", 3: "is", 4: "maxflow", 5: "nbody"}

// FigureNumbers returns the paper's figure numbers in order.
func FigureNumbers() []int { return []int{2, 3, 4, 5} }

// Figure regenerates Figure n (2: Cholesky, 3: IS, 4: Maxflow, 5:
// Barnes-Hut): the application on the z-machine and the four RC memory
// systems, with the per-system overhead decomposition.
func Figure(n int, scale Scale, p memsys.Params) (*stats.Figure, error) {
	name, ok := figureOf[n]
	if !ok {
		return nil, fmt.Errorf("workload: no figure %d in the paper (want 2-5)", n)
	}
	var cells []cell
	for _, k := range memsys.FigureKinds() {
		cells = append(cells, cell{name, k, p})
	}
	results, err := runCells(scale, cells)
	if err != nil {
		return nil, err
	}
	return &stats.Figure{Title: fmt.Sprintf("Figure %d: %s (%s scale, %d processors)", n, name, scale, p.Procs), Results: results}, nil
}

// Table1 regenerates the paper's Table 1: the inherent communication and
// observed costs on the z-machine for every application — the number of
// writes, the network propagation those writes represent (absolute cycles
// and as a percentage of aggregate execution time, virtually all of it
// hidden under computation), and the observed (read-stall) cycles.
func Table1(scale Scale, p memsys.Params) (*stats.Table, []*stats.Result, error) {
	results, err := runCells(scale, appCells(p, memsys.KindZMachine))
	if err != nil {
		return nil, nil, err
	}
	t := table(fmt.Sprintf("Table 1: inherent communication and observed costs on the z-machine (%s scale)", scale),
		[]string{"app", "writes", "net-cycles", "net % of exec", "observed cost (cycles)", "exec-cycles"},
		AppNames(), func(i int) []any {
			r := results[i]
			pct := 0.0
			if r.ExecTime > 0 {
				pct = 100 * float64(r.Counters.NetworkCycles) / (float64(r.ExecTime) * float64(p.Procs))
			}
			return []any{r.Counters.Writes, r.Counters.NetworkCycles, fmt.Sprintf("%.3f", pct), r.TotalReadStall(), r.ExecTime}
		})
	return t, results, nil
}

// ZvsPRAM regenerates the §5 headline comparison: execution time on the
// z-machine versus the PRAM for every application. The paper's result is
// that they match.
func ZvsPRAM(scale Scale, p memsys.Params) (*stats.Table, error) {
	return pairs(scale, "z-machine vs PRAM execution time (paper §5: they should match)",
		[]string{"app", "pram-exec", "zmc-exec", "ratio"},
		cell{kind: memsys.KindPRAM, p: p}, cell{kind: memsys.KindZMachine, p: p},
		func(pr, zr *stats.Result) []any {
			return []any{pr.ExecTime, zr.ExecTime, fmt.Sprintf("%.4f", float64(zr.ExecTime)/float64(pr.ExecTime))}
		})
}

// SummaryMatrix runs every application on every memory system and tabulates
// the overhead percentage — the whole evaluation at a glance.
func SummaryMatrix(scale Scale, p memsys.Params) (*stats.Table, error) {
	kinds := memsys.Kinds()
	results, err := runCells(scale, appCells(p, kinds...))
	if err != nil {
		return nil, err
	}
	return matrix(fmt.Sprintf("Overhead %% by application and memory system (%s scale, %d processors)", scale, p.Procs),
		kinds, func(i int) any { return results[i].OverheadPct() }), nil
}
