package zsim

// Tests for the metrics subsystem's two load-bearing guarantees:
//
//  1. Observation does not perturb the simulation. Simulated-time results
//     and trace streams are bit-identical with metrics enabled or disabled.
//  2. Simulated metrics are themselves deterministic: per-machine registries
//     merge into the global registry with commutative operations, so every
//     simulated counter is identical at -parallel 1 and -parallel 8. Only
//     host-side metrics (the runner.* family) may vary.

import (
	"reflect"
	"strings"
	"testing"
)

// withMetrics runs f with the global metrics gate set to v, restoring the
// previous state (gate and accumulated registry) afterwards.
func withMetrics(v bool, f func()) {
	prev := EnableMetrics(v)
	ResetGlobalMetrics()
	defer func() {
		EnableMetrics(prev)
		ResetGlobalMetrics()
	}()
	f()
}

// simOnly strips the host-side runner.* family, leaving only metrics that
// are functions of (app, system, params) and must be deterministic.
func simOnly(s MetricsSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	host := func(name string) bool { return strings.HasPrefix(name, "runner.") }
	for k, v := range s.Counters {
		if !host(k) {
			out.Counters[k] = v
		}
	}
	for k, v := range s.Gauges {
		if !host(k) {
			out.Gauges[k] = v
		}
	}
	for k, v := range s.Histograms {
		if !host(k) {
			out.Histograms[k] = v
		}
	}
	return out
}

// TestMetricsDoNotPerturbSimulation reruns the determinism fence with the
// metrics gate flipped: Result and trace stream must be bit-identical with
// metrics on and off.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	params := DefaultParams(8)
	for _, kind := range []Kind{RCInv, RCUpd, ZMachine} {
		t.Run(string(kind), func(t *testing.T) {
			var rOff, rOn *Result
			var evOff, evOn []TraceEvent
			var totalOff, totalOn uint64
			withMetrics(false, func() {
				var err error
				rOff, totalOff, evOff, err = runTraced("is", kind, params)
				if err != nil {
					t.Fatal(err)
				}
			})
			withMetrics(true, func() {
				var err error
				rOn, totalOn, evOn, err = runTraced("is", kind, params)
				if err != nil {
					t.Fatal(err)
				}
			})
			if !reflect.DeepEqual(rOff, rOn) {
				t.Errorf("results diverged with metrics enabled:\n%s\nvs\n%s", rOff, rOn)
			}
			if totalOff != totalOn {
				t.Errorf("event totals diverged with metrics enabled: %d vs %d", totalOff, totalOn)
			}
			if !reflect.DeepEqual(evOff, evOn) {
				t.Errorf("trace streams diverged with metrics enabled")
			}
		})
	}
}

// TestMetricsDeterministicAcrossParallel runs the full figure grid at
// -parallel 1 and -parallel 8: the simulated results AND every simulated
// metric must be identical; only runner.* host metrics may differ.
func TestMetricsDeterministicAcrossParallel(t *testing.T) {
	params := DefaultParams(8)
	apps := Benchmarks()
	kinds := FigureKinds()
	n := len(apps) * len(kinds)

	grid := func(par int) ([]*Result, MetricsSnapshot) {
		var results []*Result
		var snap MetricsSnapshot
		withMetrics(true, func() {
			withParallelism(par, func() {
				var err error
				results, err = RunGrid(n, func(c int) (*Result, error) {
					return RunBenchmark(apps[c/len(kinds)], ScaleSmall, kinds[c%len(kinds)], params)
				})
				if err != nil {
					t.Fatal(err)
				}
				snap = GlobalMetrics()
			})
		})
		return results, snap
	}

	r1, s1 := grid(1)
	r8, s8 := grid(8)

	for i := range r1 {
		if !reflect.DeepEqual(r1[i], r8[i]) {
			t.Errorf("cell %d result diverged between -parallel 1 and 8", i)
		}
	}
	sim1, sim8 := simOnly(s1), simOnly(s8)
	if !reflect.DeepEqual(sim1, sim8) {
		t.Errorf("simulated metrics diverged between -parallel 1 and 8:\n--- parallel 1 ---\n%s--- parallel 8 ---\n%s",
			sim1.String(), sim8.String())
	}
	if len(sim1.Counters) == 0 {
		t.Error("no simulated counters collected — instrumentation is dead")
	}
	for _, name := range []string{"sim.switches", "proto.reads", "mesh.msgs", "machine.runs"} {
		if sim1.Counter(name) == 0 {
			t.Errorf("expected counter %q to be nonzero after a full grid", name)
		}
	}
}

// TestMetricsSnapshotJSONDeterministic: rendering the same snapshot twice
// must give identical bytes (TestRegenerationGolden compares String()
// output against a committed golden).
func TestMetricsSnapshotJSONDeterministic(t *testing.T) {
	params := DefaultParams(8)
	withMetrics(true, func() {
		if _, err := RunBenchmark("is", ScaleSmall, RCInv, params); err != nil {
			t.Fatal(err)
		}
		s := GlobalMetrics()
		a, b := s.String(), GlobalMetrics().String()
		if a != b {
			t.Errorf("snapshot rendering not repeatable:\n%s\nvs\n%s", a, b)
		}
	})
}

// TestMachineMetricsAccessor checks the per-machine registry surface: a
// machine run with metrics enabled exposes its own counters via
// Machine.Metrics(), independent of the global registry.
func TestMachineMetricsAccessor(t *testing.T) {
	params := DefaultParams(8)
	withMetrics(true, func() {
		app, err := NewBenchmark("is", ScaleSmall)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(RCInv, params)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RunAppOn(app, m); err != nil {
			t.Fatal(err)
		}
		s := m.Metrics()
		if s.Counter("proto.reads") == 0 || s.Counter("machine.runs") != 1 {
			t.Errorf("per-machine snapshot missing expected counters:\n%s", s.String())
		}
		if got := GlobalMetrics().Counter("machine.runs"); got != 1 {
			t.Errorf("global machine.runs = %d, want 1", got)
		}
	})
}

// TestMetricsDisabledIsInert: with the gate off, machines publish nothing
// and the facade reports disabled.
func TestMetricsDisabledIsInert(t *testing.T) {
	params := DefaultParams(8)
	withMetrics(false, func() {
		if MetricsEnabled() {
			t.Fatal("MetricsEnabled() = true inside withMetrics(false, ...)")
		}
		if _, err := RunBenchmark("is", ScaleSmall, RCInv, params); err != nil {
			t.Fatal(err)
		}
		if s := GlobalMetrics(); len(s.Counters) != 0 {
			t.Errorf("disabled run leaked counters into the global registry:\n%s", s.String())
		}
	})
}

// TestMetricsGridRepeatable: two identical grids accumulate exactly 2x the
// simulated counters of one (merge is additive and deterministic).
func TestMetricsGridRepeatable(t *testing.T) {
	params := DefaultParams(8)
	one := func(times int) MetricsSnapshot {
		var snap MetricsSnapshot
		withMetrics(true, func() {
			for i := 0; i < times; i++ {
				if _, err := RunBenchmark("sor", ScaleSmall, RCInv, params); err != nil {
					t.Fatal(err)
				}
			}
			snap = GlobalMetrics()
		})
		return simOnly(snap)
	}
	s1, s2 := one(1), one(2)
	for name, v := range s1.Counters {
		if got := s2.Counters[name]; got != 2*v {
			t.Errorf("counter %s: two runs accumulated %d, want 2x%d", name, got, v)
		}
	}
}
