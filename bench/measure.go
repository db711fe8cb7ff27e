package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"zsim/internal/apps"
	"zsim/internal/machine"
	"zsim/internal/metrics"
	"zsim/internal/runner"
	"zsim/internal/stats"
)

// options selects what one benchmark invocation measures.
type options struct {
	seed    int64
	seconds float64 // time budget; passes stop starting once it would be exceeded
	traced  bool
	rounds  int // when > 0, run exactly this many rounds regardless of time
}

// cellRun is one cell's outcome in one pass: host-time stamps at the layer
// boundaries, the trap count, the result digest and any failure.
type cellRun struct {
	// start, built, ready, ran and done bracket machine.New, then NewApp
	// with App.Setup, then Machine.Run, then App.Verify.
	start, built, ready, ran, done time.Time
	yields                         uint64 // sim.yields: fast-path hits plus full switches
	digest                         string
	err                            error
	// Traced passes only: the machine's metrics registry after the run, and
	// the protocol-call timings of the Mem decorator. Only the timings are
	// kept, not the decorator, which holds the whole memory system.
	snap metrics.Snapshot
	ops  [numOps]opStat
}

func (c *cellRun) newS() float64    { return c.built.Sub(c.start).Seconds() }
func (c *cellRun) setupS() float64  { return c.ready.Sub(c.start).Seconds() }
func (c *cellRun) appS() float64    { return c.ready.Sub(c.built).Seconds() }
func (c *cellRun) runS() float64    { return c.ran.Sub(c.ready).Seconds() }
func (c *cellRun) verifyS() float64 { return c.done.Sub(c.ran).Seconds() }
func (c *cellRun) wallS() float64   { return c.done.Sub(c.start).Seconds() }

// pass is one run of every cell of a workload.
type pass struct {
	traced     bool
	start, end time.Time
	cells      []cellRun // indexed like the workload's cells
	rt         rtDelta   // traced passes only
}

func (p *pass) wallS() float64 { return p.end.Sub(p.start).Seconds() }

// sum adds f over the pass's cells.
func (p *pass) sum(f func(*cellRun) float64) float64 {
	var s float64
	for i := range p.cells {
		s += f(&p.cells[i])
	}
	return s
}

// result is everything one invocation measured.
type result struct {
	w                 *spec
	opts              options
	passes            []*pass
	costs             *unitCosts // traced runs only
	attempted, failed int
	errs              []string  // the first few failures, for stderr
	setups            []float64 // setup_s samples: each untraced pass, then set-up-only rounds
	peakRSSMB         float64
}

// minRounds is how many rounds run even past the time budget, so that every
// median has at least this many samples.
func minRounds(traced bool) int {
	if traced {
		return 1
	}
	return 3
}

// measure runs the workload in a closed batch loop. A round is one
// untraced pass, followed in a traced run by one traced pass. Rounds repeat
// until starting another would overrun the budget, judged by the median
// round so far.
func measure(w *spec, o options, golden map[string]string) (*result, error) {
	prev := runner.SetParallelism(w.parallelism())
	defer runner.SetParallelism(prev)
	r := &result{w: w, opts: o}
	start := time.Now()
	if o.traced {
		r.costs = measureUnitCosts(w)
	}
	var rounds []float64
	for i := 0; ; i++ {
		if o.rounds > 0 {
			if i == o.rounds {
				break
			}
		} else if i >= minRounds(o.traced) && time.Since(start).Seconds()+median(rounds) > o.seconds {
			break
		}
		t := time.Now()
		r.passes = append(r.passes, runPass(w, o.seed, false))
		if o.traced {
			r.passes = append(r.passes, runPass(w, o.seed, true))
		}
		rounds = append(rounds, time.Since(t).Seconds())
	}
	metrics.Enable(false)
	for _, p := range r.untraced() {
		r.setups = append(r.setups, p.sum((*cellRun).setupS))
	}
	for !o.traced && len(r.setups) < minSetupSamples {
		r.setups = append(r.setups, setupSample(w, o.seed))
	}
	r.check(golden, o.seed == 0)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.peakRSSMB = rss
	return r, nil
}

// runPass runs every cell once on runner.Grid. A traced pass turns the
// metrics registry on, wraps each machine's memory system in the timing
// decorator, and samples the Go runtime around the pass.
func runPass(w *spec, seed int64, traced bool) *pass {
	runtime.GC() // every pass starts from the same heap, whatever the last one left
	metrics.Enable(traced)
	p := &pass{traced: traced}
	var before rtSample
	if traced {
		before = sampleRuntime()
	}
	p.start = time.Now()
	// Cells report failures in cellRun.err, so Grid itself never fails.
	p.cells, _ = runner.Grid(len(w.cells), func(i int) (cellRun, error) {
		return runCell(w.cells[i], seed, traced), nil
	})
	p.end = time.Now()
	if traced {
		p.rt = sampleRuntime().since(before)
	}
	return p
}

// runCell builds, sets up, runs and verifies one cell, timing each layer's
// public call from outside. A panic anywhere in the cell is its failure.
func runCell(c cell, seed int64, traced bool) (r cellRun) {
	defer recoverInto(&r.err)
	m, app, mem := setUp(&r, c, seed, traced)
	if r.err != nil {
		return r
	}
	res := m.Run(app.Name(), app.Body)
	r.ran = time.Now()
	r.err = app.Verify(m)
	r.done = time.Now()
	r.yields = m.Eng.Switches() + m.Eng.FastPathHits()
	r.digest = digest(res)
	if traced {
		r.snap = m.Metrics()
		r.ops = mem.ops
	}
	return r
}

// setUp builds the cell's machine and application and sets the shared data
// up, stamping r.start, r.built and r.ready. When traced, the machine's
// memory system is wrapped in the timing decorator, which it returns.
func setUp(r *cellRun, c cell, seed int64, traced bool) (*machine.Machine, apps.App, *timedMem) {
	r.start = time.Now()
	m, err := machine.New(c.kind, c.params)
	r.built = time.Now()
	if err != nil {
		r.err = err
		return nil, nil, nil
	}
	var mem *timedMem
	if traced {
		m.Mem, mem = wrapMem(m.Mem)
	}
	app, err := newApp(c.app, c.scale, seed)
	if err != nil {
		r.err = err
		return nil, nil, nil
	}
	app.Setup(m)
	r.ready = time.Now()
	return m, app, mem
}

// recoverInto turns a panic in the deferring function into its error.
func recoverInto(err *error) {
	if v := recover(); v != nil {
		*err = fmt.Errorf("panic: %v", v)
	}
}

// minSetupSamples is how many setup_s samples an untraced run takes. Passes
// of the paper-scale workloads are seconds long, so few fit the budget;
// set-up alone takes milliseconds, so set-up-only rounds make up the rest.
const minSetupSamples = 30

// setupSample builds and sets up every cell on the grid without running
// it, and returns the summed set-up seconds. Failures are left to the
// passes, which run the same set-up.
func setupSample(w *spec, seed int64) float64 {
	runtime.GC()
	cells, _ := runner.Grid(len(w.cells), func(i int) (r cellRun, _ error) {
		defer recoverInto(&r.err)
		setUp(&r, w.cells[i], seed, false)
		return r, nil
	})
	var s float64
	for i := range cells {
		s += cells[i].setupS()
	}
	return s
}

// digest hashes everything a run computes in simulated time: execution
// time, the per-processor overhead decomposition and the protocol counters.
func digest(res *stats.Result) string {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // stats.Result holds only numbers, strings and slices of them
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// maxErrs bounds the failures kept for the report.
const maxErrs = 10

// check counts attempted and failed cells over every pass. A cell fails on
// an error, a panic or a Verify failure; when its digest differs from the
// cell's digest in the first pass that ran it (the simulator is
// deterministic, and traced runs must not change results); or, when gate is
// set, when that first digest differs from the committed golden.
func (r *result) check(golden map[string]string, gate bool) {
	first := map[string]string{}
	for pi, p := range r.passes {
		for i := range p.cells {
			c := &p.cells[i]
			id := r.w.cells[i].id()
			r.attempted++
			var err error
			switch ref, seen := first[id]; {
			case c.err != nil:
				err = c.err
			case !seen:
				first[id] = c.digest
				if gate && golden[id] != c.digest {
					err = fmt.Errorf("digest %s differs from golden %q", c.digest, golden[id])
				}
			case c.digest != ref:
				err = fmt.Errorf("digest %s differs from %s in an earlier pass (traced=%t)", c.digest, ref, p.traced)
			}
			if err != nil {
				r.failed++
				if len(r.errs) < maxErrs {
					r.errs = append(r.errs, fmt.Sprintf("pass %d: %s: %v", pi, id, err))
				}
			}
		}
	}
}

// untraced and traced split the passes by kind.
func (r *result) untraced() []*pass { return r.filter(false) }
func (r *result) traced() []*pass   { return r.filter(true) }

func (r *result) filter(traced bool) []*pass {
	var out []*pass
	for _, p := range r.passes {
		if p.traced == traced {
			out = append(out, p)
		}
	}
	return out
}
