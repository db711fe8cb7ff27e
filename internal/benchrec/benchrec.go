// Package benchrec defines the machine-readable BENCH_*.json record that
// cmd/paperbench emits with -bench-json, and the comparison logic behind
// cmd/benchdiff: given two records, classify every timing, throughput, and
// watched-metric delta against a tolerance and report regressions. The
// records form the repository's perf trajectory; CI's bench-gate job fails
// a build whose record regresses past tolerance against the blessed
// BENCH_baseline.json.
package benchrec

import (
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"zsim/internal/metrics"
)

// Record is one full-regeneration timing/throughput record plus the
// simulator's own metrics section.
type Record struct {
	Timestamp         string            `json:"timestamp"`
	Scale             string            `json:"scale"`
	Procs             int               `json:"procs"`
	Parallel          int               `json:"parallel"`
	KernelShards      int               `json:"kernel_shards,omitempty"`
	GOMAXPROCS        int               `json:"gomaxprocs"`
	NumCPU            int               `json:"num_cpu"`
	Experiments       []Entry           `json:"experiments"`
	ClaimsWallMS      float64           `json:"claims_wall_ms"`
	TotalWallMS       float64           `json:"total_wall_ms"`
	ExperimentsPerSec float64           `json:"experiments_per_sec"`
	Metrics           *metrics.Snapshot `json:"metrics,omitempty"`
	// Curves holds per-P scalability curves (the S-family experiments):
	// simulated quantities, so the gate compares them like watched metrics,
	// not like wall-clock timings.
	Curves []Curve `json:"curves,omitempty"`
}

// Entry is one experiment's wall-clock timing.
type Entry struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
}

// Curve is one scalability experiment's simulated overhead-class curve:
// one point per machine size. Every quantity is virtual (cycles), so two
// records of the same simulation must agree exactly.
type Curve struct {
	ID     string       `json:"id"` // experiment ID (S1..)
	App    string       `json:"app"`
	System string       `json:"system"`
	Points []CurvePoint `json:"points"`
}

// CurvePoint is one machine size's overhead decomposition.
type CurvePoint struct {
	Procs       int     `json:"procs"`
	ExecCycles  float64 `json:"exec_cycles"`
	ReadStall   float64 `json:"read_stall"`
	WriteStall  float64 `json:"write_stall"`
	BufferFlush float64 `json:"buffer_flush"`
	SyncWait    float64 `json:"sync_wait"`
	OverheadPct float64 `json:"overhead_pct"`
}

// Load reads a record from path.
func Load(path string) (*Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Record
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchrec: %s: %w", path, err)
	}
	return &r, nil
}

// Write marshals the record to path with a trailing newline.
func (r *Record) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ParseTolerance accepts "25%", "25 %", or a bare fraction like "0.25" and
// returns the fraction.
func ParseTolerance(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	s = strings.TrimSpace(strings.TrimSuffix(s, "%"))
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("benchrec: bad tolerance %q: %w", s, err)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("benchrec: negative tolerance %q", s)
	}
	return v, nil
}

// watchedMetric is one simulated counter the gate tracks. worse = +1 means
// an increase past tolerance is a regression (more scheduler round-trips,
// more misses); worse = -1 means a decrease is (fast-path hits). Host-side
// metrics (runner.*) are deliberately absent: they vary with the machine
// and the -parallel setting.
type watchedMetric struct {
	name  string
	worse int
}

var watchedMetrics = []watchedMetric{
	{"sim.yields", +1},                 // total scheduling points (switches + fast-path hits); trap count, mode-invariant
	{"proto.read_misses", +1},          // coherence efficiency
	{"proto.write_misses", +1},         //
	{"proto.invalidations", +1},        //
	{"mesh.msgs", +1},                  // traffic volume
	{"mesh.bytes", +1},                 //
	{"mesh.queue_cycles", +1},          // interconnect contention
	{"wbuffer.full_stall_cycles", +1},  // write-stall pressure
	{"wbuffer.flush_stall_cycles", +1}, // buffer-flush pressure
}

// sameModeMetrics are gated only between records of the same kernel shard
// count. The switch/fast-path split legitimately shifts when the sharded
// kernel dispatches traps inside streams and local windows (their sum,
// sim.yields, is watched unconditionally above), and the scope
// classification counters exist only on sharded records.
var sameModeMetrics = []watchedMetric{
	{"sim.switches", +1},                    // fast-path degradation: more coroutine handoffs
	{"sim.fastpath_hits", -1},               // fast-path degradation: fewer inline returns
	{"machine.scope.local_dispatches", -1},  // scope-classification coverage: fewer shard-local traps
	{"machine.scope.global_dispatches", +1}, // scope-classification coverage: more serialized traps
}

// Delta is one compared quantity.
type Delta struct {
	Name       string  // what was compared ("E3 wall_ms", "metric sim.switches", ...)
	Old, New   float64 //
	Pct        float64 // (new-old)/old * 100; 0 when old == 0
	Regression bool    // past tolerance in the bad direction
	Note       string  // "skipped: below floor", "only in old", ...
}

// Options configures a comparison.
type Options struct {
	// Tolerance is the allowed fractional slowdown for timings and
	// throughput (0.25 = 25%).
	Tolerance float64
	// MetricTolerance is the allowed fractional drift for watched
	// simulated metrics; 0 selects Tolerance.
	MetricTolerance float64
	// MinWallMS is the per-experiment floor: entries whose old wall time is
	// below it are reported but never fail the gate (sub-floor timings are
	// noise-dominated on shared CI hosts).
	MinWallMS float64
	// MetricsOnly compares only the watched simulated metrics: timings and
	// throughput are reported informationally but never regress, and metric
	// drift in EITHER direction past MetricTolerance is a regression. This
	// is the identity gate between two records of the same simulation that
	// legitimately differ in wall time — e.g. the serial vs sharded kernel,
	// whose simulated metrics must not drift at all (tolerance 0).
	MetricsOnly bool
}

// Diff compares new against old and returns every delta plus whether any
// regression crossed tolerance. Timings regress when new exceeds
// old*(1+tol); throughput regresses when new falls below old*(1-tol);
// watched metrics regress when they drift past MetricTolerance in their
// bad direction. Experiments present in only one record are noted but are
// not regressions (the experiment index legitimately grows across PRs).
func Diff(old, new *Record, opts Options) (deltas []Delta, regressed bool) {
	tol := opts.Tolerance
	mtol := opts.MetricTolerance
	if mtol == 0 && !opts.MetricsOnly {
		// Metrics-only gates take MetricTolerance literally (0 = exact);
		// otherwise 0 means "same as the timing tolerance".
		mtol = tol
	}

	timing := func(name string, o, n, floor float64) {
		d := Delta{Name: name, Old: o, New: n, Pct: pctDelta(o, n)}
		switch {
		case o <= 0:
			d.Note = "no baseline"
		case opts.MetricsOnly:
			d.Note = "metrics-only, informational"
		case o < floor:
			d.Note = fmt.Sprintf("below %gms floor, informational", floor)
		case n > o*(1+tol):
			d.Regression = true
		}
		deltas = append(deltas, d)
		regressed = regressed || d.Regression
	}

	oldByID := make(map[string]Entry, len(old.Experiments))
	for _, e := range old.Experiments {
		oldByID[e.ID] = e
	}
	seen := make(map[string]bool, len(new.Experiments))
	for _, e := range new.Experiments {
		seen[e.ID] = true
		oe, ok := oldByID[e.ID]
		if !ok {
			deltas = append(deltas, Delta{Name: e.ID + " wall_ms", New: e.WallMS, Note: "only in new"})
			continue
		}
		timing(e.ID+" wall_ms", oe.WallMS, e.WallMS, opts.MinWallMS)
	}
	for _, e := range old.Experiments {
		if !seen[e.ID] {
			deltas = append(deltas, Delta{Name: e.ID + " wall_ms", Old: e.WallMS, Note: "only in old"})
		}
	}

	timing("claims_wall_ms", old.ClaimsWallMS, new.ClaimsWallMS, opts.MinWallMS)
	timing("total_wall_ms", old.TotalWallMS, new.TotalWallMS, 0)

	// Throughput: lower is worse.
	{
		o, n := old.ExperimentsPerSec, new.ExperimentsPerSec
		d := Delta{Name: "experiments_per_sec", Old: o, New: n, Pct: pctDelta(o, n)}
		if opts.MetricsOnly {
			d.Note = "metrics-only, informational"
		} else if o > 0 && n < o*(1-tol) {
			d.Regression = true
		}
		deltas = append(deltas, d)
		regressed = regressed || d.Regression
	}

	if old.Metrics != nil && new.Metrics != nil {
		watched := watchedMetrics
		if old.KernelShards == new.KernelShards {
			watched = append(append([]watchedMetric(nil), watchedMetrics...), sameModeMetrics...)
		}
		for _, w := range watched {
			o := float64(old.Metrics.Counter(w.name))
			n := float64(new.Metrics.Counter(w.name))
			if o == 0 && n == 0 {
				continue
			}
			d := Delta{Name: "metric " + w.name, Old: o, New: n, Pct: pctDelta(o, n)}
			switch {
			case o == 0:
				d.Note = "no baseline"
			case opts.MetricsOnly && (n > o*(1+mtol) || n < o*(1-mtol)):
				// Identity gate: drift in either direction is a failure.
				d.Regression = true
			case opts.MetricsOnly:
			case w.worse > 0 && n > o*(1+mtol):
				d.Regression = true
			case w.worse < 0 && n < o*(1-mtol):
				d.Regression = true
			}
			deltas = append(deltas, d)
			regressed = regressed || d.Regression
		}
	} else if old.Metrics == nil && new.Metrics != nil {
		deltas = append(deltas, Delta{Name: "metrics", Note: "baseline has no metrics section; skipped"})
	}

	// Scalability curves: simulated quantities, gated like watched metrics.
	// Higher is worse in the normal mode; any drift fails a metrics-only
	// identity gate. Curves or points present in only one record are noted
	// but never regress (the S-family and its -scaling-procs grid grow).
	oldCurves := make(map[string]Curve, len(old.Curves))
	for _, c := range old.Curves {
		oldCurves[c.ID] = c
	}
	for _, c := range new.Curves {
		oc, ok := oldCurves[c.ID]
		if !ok {
			deltas = append(deltas, Delta{Name: "curve " + c.ID, Note: "only in new"})
			continue
		}
		oldPts := make(map[int]CurvePoint, len(oc.Points))
		for _, p := range oc.Points {
			oldPts[p.Procs] = p
		}
		for _, p := range c.Points {
			op, ok := oldPts[p.Procs]
			if !ok {
				deltas = append(deltas, Delta{Name: fmt.Sprintf("curve %s P=%d", c.ID, p.Procs), Note: "only in new"})
				continue
			}
			for _, q := range []struct {
				name string
				o, n float64
			}{
				{"exec_cycles", op.ExecCycles, p.ExecCycles},
				{"read_stall", op.ReadStall, p.ReadStall},
				{"write_stall", op.WriteStall, p.WriteStall},
				{"buffer_flush", op.BufferFlush, p.BufferFlush},
				{"sync_wait", op.SyncWait, p.SyncWait},
			} {
				if q.o == 0 && q.n == 0 {
					continue
				}
				d := Delta{
					Name: fmt.Sprintf("curve %s P=%d %s", c.ID, p.Procs, q.name),
					Old:  q.o, New: q.n, Pct: pctDelta(q.o, q.n),
				}
				switch {
				case q.o == 0:
					d.Note = "no baseline"
				case opts.MetricsOnly && (q.n > q.o*(1+mtol) || q.n < q.o*(1-mtol)):
					d.Regression = true
				case opts.MetricsOnly:
				case q.n > q.o*(1+mtol):
					d.Regression = true
				}
				deltas = append(deltas, d)
				regressed = regressed || d.Regression
			}
		}
	}

	return deltas, regressed
}

func pctDelta(o, n float64) float64 {
	if o == 0 {
		return 0
	}
	return (n - o) / o * 100
}

// Format renders deltas as a readable table, regressions marked with '!'.
func Format(deltas []Delta, opts Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %12s %12s %9s\n", "quantity", "old", "new", "delta")
	for _, d := range deltas {
		mark := " "
		if d.Regression {
			mark = "!"
		}
		note := d.Note
		if note != "" {
			note = "  (" + note + ")"
		}
		fmt.Fprintf(&b, "%s %-32s %12s %12s %8.1f%%%s\n",
			mark, d.Name, num(d.Old), num(d.New), d.Pct, note)
	}
	return b.String()
}

// scopeTraps are the machine trap kinds the scope-classification metrics
// break down by (machine.scope.<trap>_local / _global).
var scopeTraps = []string{"load", "store", "swap", "compute"}

// ScopeReport renders a record's machine.scope.* counters — the per-trap
// local/global dispatch split of DESIGN §15 plus the total local-dispatch
// fraction — as the table CI publishes as the sharded job's
// local-dispatch-fraction artifact. It returns "" when the record carries
// no scope counters (serial records never publish them).
func ScopeReport(r *Record) string {
	if r.Metrics == nil {
		return ""
	}
	c := r.Metrics.Counters
	local := c["machine.scope.local_dispatches"]
	global := c["machine.scope.global_dispatches"]
	if local+global == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "machine-trap scope classification (kernel_shards=%d)\n", r.KernelShards)
	fmt.Fprintf(&b, "%-10s %12s %12s %8s\n", "trap", "local", "global", "local%")
	row := func(name string, l, g uint64) {
		pct := "-"
		if l+g > 0 {
			pct = fmt.Sprintf("%.1f%%", 100*float64(l)/float64(l+g))
		}
		fmt.Fprintf(&b, "%-10s %12d %12d %8s\n", name, l, g, pct)
	}
	for _, trap := range scopeTraps {
		row(trap, c["machine.scope."+trap+"_local"], c["machine.scope."+trap+"_global"])
	}
	row("total", local, global)
	return b.String()
}

func num(v float64) string {
	if v == float64(int64(v)) && v < 1e12 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}
