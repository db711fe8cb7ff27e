package zsim

import (
	"fmt"
	"reflect"
	"testing"
)

// traceCap bounds the per-run event window compared by the determinism
// tests: the full Result, the total event count, and the last traceCap
// events must all be bit-identical across repeated runs.
const traceCap = 4096

// runTraced executes one app on one system with the trace recorder and the
// conformance checker attached; a conformance violation is an error.
func runTraced(name string, kind Kind, params Params) (*Result, uint64, []TraceEvent, error) {
	app, err := NewBenchmark(name, ScaleSmall)
	if err != nil {
		return nil, 0, nil, err
	}
	m, err := NewMachine(kind, params)
	if err != nil {
		return nil, 0, nil, err
	}
	rec := m.EnableTrace(traceCap)
	chk := m.EnableCheck()
	res, err := RunAppOn(app, m)
	if err != nil {
		return nil, 0, nil, err
	}
	if err := chk.Err(); err != nil {
		return nil, 0, nil, err
	}
	return res, rec.Total(), rec.Events(), nil
}

// TestDeterminism runs every figure application twice on every memory
// system: the simulator must be a deterministic function of (app, system,
// params), so the Results and the trace streams must be identical. This is
// the regression fence that makes the litmus golden outcomes meaningful.
// A third run attaches no observer and must give the same Result, so
// observing a run does not change it; the machine builds trace events only
// while an observer is attached, and this pins that skipping them changes
// nothing.
func TestDeterminism(t *testing.T) {
	params := DefaultParams(8)
	for _, name := range Benchmarks() {
		for _, kind := range Kinds() {
			name, kind := name, kind
			t.Run(fmt.Sprintf("%s/%s", name, kind), func(t *testing.T) {
				t.Parallel()
				r1, total1, ev1, err := runTraced(name, kind, params)
				if err != nil {
					t.Fatal(err)
				}
				r2, total2, ev2, err := runTraced(name, kind, params)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1, r2) {
					t.Errorf("results diverged between identical runs:\n%s\nvs\n%s", r1, r2)
				}
				if total1 != total2 {
					t.Errorf("event totals diverged: %d vs %d", total1, total2)
				}
				if !reflect.DeepEqual(ev1, ev2) {
					t.Errorf("trace streams diverged (window of last %d events)", traceCap)
				}
				plain, err := RunBenchmark(name, ScaleSmall, kind, params)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(r1, plain) {
					t.Errorf("observers changed the result:\n%s\nobserved, vs unobserved\n%s", r1, plain)
				}
			})
		}
	}
}
