package workload

import (
	"fmt"

	"zsim/internal/apps"
	"zsim/internal/machine"
	"zsim/internal/memsys"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// ConformanceSweep runs every application on every memory system with the
// runtime conformance checker attached (Machine.EnableCheck) and tabulates
// the verdicts: events validated per run, and any invariant violations. The
// returned flag is true when every execution was clean. Output verification
// failures (a wrong answer) are returned as errors, not verdict cells. Each
// cell attaches a checker to its machine, so the sweep runs its own grid.
func ConformanceSweep(scale Scale, p memsys.Params) (*stats.Table, bool, error) {
	type verdict struct {
		cell string
		ok   bool
	}
	kinds := memsys.Kinds()
	cells := appCells(p, kinds...)
	verdicts, err := runner.Grid(len(cells), func(i int) (verdict, error) {
		c := cells[i]
		app, err := NewApp(c.app, scale)
		if err != nil {
			return verdict{}, err
		}
		m, err := machine.New(c.kind, c.p)
		if err != nil {
			return verdict{}, err
		}
		chk := m.EnableCheck()
		if _, err := apps.Run(app, m); err != nil {
			return verdict{}, fmt.Errorf("workload: %s on %s failed verification: %w", c.app, c.kind, err)
		}
		events, _, _, _ := chk.Stats()
		if chk.Ok() {
			return verdict{fmt.Sprintf("ok (%d ev)", events), true}, nil
		}
		return verdict{fmt.Sprintf("FAIL (%d violations)", chk.NumViolations()), false}, nil
	})
	if err != nil {
		return nil, false, err
	}
	pass := true
	for _, v := range verdicts {
		pass = pass && v.ok
	}
	return matrix(fmt.Sprintf("Conformance-checker verdicts (%s scale, %d processors)", scale, p.Procs),
		kinds, func(i int) any { return verdicts[i].cell }), pass, nil
}
