// Package sim implements the execution-driven simulation kernel used by the
// z-machine reproduction. It plays the role of the SPASM framework from the
// paper: simulated processors run real Go code and trap into the simulator on
// every globally visible operation (shared memory access, synchronization).
//
// Each simulated processor body runs on its own coroutine (iter.Pull), so
// exactly one body runs at any instant. Every processor carries a local
// virtual clock; pure computation advances the clock without involving the
// scheduler, while globally visible operations first call Sync. The kernel
// always runs the runnable processor with the smallest clock (ties broken by
// processor id), so globally visible operations execute in nondecreasing
// virtual-time order and a simulation is deterministic and reproducible. The
// run queue (runq.go) packs each runnable processor's (clock, id) into one
// uint64 key, so that order is a single unsigned compare.
//
// There is no dispatching loop. A Sync or Block that must hand off takes the
// next processor off the run queue itself and switches straight to that
// processor's goroutine, one coroutine switch that bypasses the Go scheduler
// (coro.go). Run's caller only starts a run and, if it fails, leads the
// teardown.
package sim

import (
	"fmt"
	"runtime"
	"strings"

	"zsim/internal/metrics"
)

// Time is virtual time in CPU cycles.
type Time uint64

// Proc is a simulated processor. All methods must be called from the
// processor's own body function, except Unblock which is called by whichever
// processor performs the releasing action.
type Proc struct {
	id      int
	clock   Time
	eng     *Engine
	blocked bool
	done    bool
	// pulled records which half of a switch p's coroutine takes next:
	// yield after a next, next after a yield (switchOn).
	pulled bool
	// blockReason is a human-readable label for deadlock reports.
	blockReason string

	// The body's coroutine (coro.go): next and yield each switch on it. at
	// is the processor whose coroutine p's goroutine is parked on while
	// another body runs.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	at    *Proc
}

// ID returns the processor number in [0, NumProcs).
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the processor's local clock forward by c cycles of pure
// computation. It does not involve the scheduler: computation is only
// locally visible.
func (p *Proc) Advance(c Time) { p.clock += c }

// AdvanceTo moves the clock forward to t if t is in the future.
func (p *Proc) AdvanceTo(t Time) {
	if t > p.clock {
		p.clock = t
	}
}

// Sync returns when this processor is again the runnable processor with the
// smallest virtual clock. A processor must call Sync immediately before every
// globally visible operation; between Sync returning and the next handoff no
// other processor runs, so the operation is atomic at the processor's current
// clock.
//
// Fast path: exactly one body runs at a time, so if the caller sorts before
// the run queue's root — it would be popped right back off the run queue —
// Sync returns without a switch. An empty queue's root sorts after every
// processor, so a lone runnable processor always takes the fast path. The
// schedule is bit-identical to the slow path's: the slow path would have
// dispatched this processor next in either case, by the same (clock, id)
// order.
//
// Slow path: the caller re-enters the run queue and the next processor leaves
// it in one replace. The caller sorts after the root, so pushing it and then
// popping the root would give the same result in two passes. The caller then
// switches straight to that processor's goroutine.
func (p *Proc) Sync() {
	e := p.eng
	if e.aborting {
		panic(abortRun{})
	}
	q := &e.runq
	if q.first(p) {
		e.fastPathHits++
		return
	}
	p.handoff(q.replace(q.key(p)))
}

// Block parks the processor until another processor calls Unblock on it.
// reason is reported if the simulation deadlocks.
func (p *Proc) Block(reason string) {
	e := p.eng
	if e.aborting {
		panic(abortRun{})
	}
	p.blocked = true
	p.blockReason = reason
	e.blocks++
	p.handoff(e.runq.pop())
}

// handoff dispatches the processor keyed k and returns once p is dispatched
// again, unwinding p instead if the run failed meanwhile.
func (p *Proc) handoff(k uint64) {
	e := p.eng
	e.dispatch(p, &p.at, k)
	if e.aborting {
		panic(abortRun{})
	}
}

// Unblock makes p runnable again, with its clock advanced to at least t
// (the virtual time of the releasing action). It must be called from the
// currently running processor's body (or from engine hooks); the engine is
// single-threaded so no locking is required.
func (p *Proc) Unblock(t Time) {
	e := p.eng
	if !p.blocked {
		if e.aborting {
			// A deferred release during teardown may target a processor
			// the engine has already forced out; let the unwind proceed.
			return
		}
		state := "runnable"
		if p.done {
			state = "finished"
		}
		panic(fmt.Sprintf("sim: Unblock of %s processor %d", state, p.id))
	}
	p.blocked = false
	p.blockReason = ""
	p.AdvanceTo(t)
	e.runq.push(e.runq.key(p))
}

// Blocked reports whether the processor is currently parked.
func (p *Proc) Blocked() bool { return p.blocked }

// abortRun is the sentinel panic that unwinds a processor body when a run
// fails (a deadlock, or another body's panic or Goexit); the coroutine
// wrapper (Proc.run) recovers it.
type abortRun struct{}

// Engine schedules a fixed set of simulated processors.
type Engine struct {
	procs []*Proc
	runq  runQueue
	// lead is the processor whose coroutine Run's caller is parked on while
	// the bodies run.
	lead      *Proc
	remaining int  // processors whose bodies have not returned
	finish    Time // the largest clock a body has returned at

	// A failed run. aborting is set while the teardown unwinds the
	// unfinished bodies: Sync and Block panic(abortRun{}) instead of
	// handing off, and Unblock tolerates the stale state deferred releases
	// see. failure is what Run re-raises, unless a body ended by
	// runtime.Goexit: exiting lists those bodies in the order they did.
	aborting bool
	failure  any
	exiting  []*Proc

	// Instrumentation. The counts are plain fields (the engine is
	// single-threaded) harvested into a metrics registry by PublishMetrics.
	switches     uint64 // processor resumptions (scheduling events)
	blocks       uint64 // Block calls observed
	fastPathHits uint64 // Sync calls that returned without a switch
	drains       uint64 // bodies unwound by teardown
	// depths[d] counts the scheduling pops that left d processors runnable,
	// for sim.runq_depth; nil unless metrics were on when the engine was
	// built.
	depths []uint64
}

// RunqDepthBuckets are the inclusive upper bounds of the sim.runq_depth
// histogram: how many processors were runnable behind each scheduling pop.
// They reach memsys.MaxProcs, so no depth a machine can have overflows.
var RunqDepthBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// PublishMetrics harvests the engine's plain instrumentation counts into r
// (implements metrics.Publisher), and the run-queue depths into the
// sim.runq_depth histogram. sim.yields is the total number of globally
// visible scheduling points: every trap costs exactly one fast-path hit or
// one full handoff, so it is the run's trap count.
func (e *Engine) PublishMetrics(r *metrics.Registry) {
	r.Counter("sim.switches").Add(e.switches)
	r.Counter("sim.blocks").Add(e.blocks)
	r.Counter("sim.fastpath_hits").Add(e.fastPathHits)
	r.Counter("sim.yields").Add(e.fastPathHits + e.switches)
	r.Counter("sim.deadlock_drains").Add(e.drains)
	h := r.Histogram("sim.runq_depth", RunqDepthBuckets)
	for d, n := range e.depths {
		h.ObserveN(uint64(d), n)
	}
}

// NewEngine creates an engine with n processors, all with clock zero. If
// metrics are on, it also counts run-queue depths for PublishMetrics.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	e := &Engine{
		procs: make([]*Proc, n),
		runq:  newRunQueue(n),
	}
	if metrics.Enabled() {
		e.depths = make([]uint64, n)
	}
	procs := make([]Proc, n)
	for i := range procs {
		procs[i] = Proc{id: i, eng: e}
		e.procs[i] = &procs[i]
	}
	return e
}

// NumProcs returns the number of processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

// Run executes body on every processor (as coroutines that run one at a
// time) and returns the maximum finishing clock, i.e. the parallel
// execution time. Run panics with a state dump if the simulation deadlocks
// (all unfinished processors blocked), and panics, naming the processor, if
// a clock grows past what a run-queue key can hold. A panic in a body
// reaches the caller of Run with its original value, and a body's
// runtime.Goexit (a t.FailNow, say) ends the caller of Run by
// runtime.Goexit. Either way every other body is unwound first, so its
// defers run, no goroutine is left behind, and the engine stays reusable.
func (e *Engine) Run(body func(p *Proc)) Time {
	e.start(body)
	if e.dispatch(nil, &e.lead, e.runq.pop()); e.aborting {
		e.teardown()
	}
	return e.finish
}

// start resets the engine and every processor, makes body each processor's
// coroutine, and queues them all.
func (e *Engine) start(body func(p *Proc)) {
	q := &e.runq
	q.reset()
	e.remaining, e.finish = len(e.procs), 0
	e.aborting, e.failure, e.exiting = false, nil, e.exiting[:0]
	for _, p := range e.procs {
		p.clock = 0
		p.blocked = false
		p.start(body)
		q.push(q.key(p))
	}
}

// dispatch runs the processor keyed k. The running goroutine — self's, or
// Run's caller's if self is nil — parks where that processor's goroutine is
// parked, recording that in *at, and resumes it. dispatch returns once the
// running goroutine may go on: self was dispatched, every body has
// returned, or the run failed (aborting). A body's return wakes whichever
// goroutine is parked on its coroutine, and that goroutine dispatches the
// next processor, which may be its own.
func (e *Engine) dispatch(self *Proc, at **Proc, k uint64) {
	q := &e.runq
	for {
		if k == empty {
			if e.remaining > 0 {
				e.failure, e.aborting = "sim: deadlock\n"+e.stateDump(), true
			}
			return
		}
		t := e.procs[q.id(k)]
		e.switches++
		if e.depths != nil {
			e.depths[q.n]++
		}
		if t == self || switchOn(at, t.at) || e.aborting {
			return
		}
		k = q.pop()
	}
}

// teardown unwinds every unfinished body of a failed run, then re-raises the
// failure in Run's caller. Run's caller dispatches each unfinished processor
// in turn; its body unwinds from its pending Sync or Block, which panic
// abortRun while aborting is set, so its defers run. A body's return may
// wake another unfinished body instead of Run's caller, and that body
// unwinds too; so may a body that ends by runtime.Goexit and parks on its
// own coroutine in hold.
func (e *Engine) teardown() {
	for _, p := range e.procs {
		if !p.done {
			switchOn(&e.lead, p.at)
		}
	}
	if n := len(e.exiting); n > 0 {
		// Release the bodies held ending by Goexit: the last one held
		// resumes the one before it, and so on, and they end first to
		// last. The last one's exit wakes this goroutine: next re-raises
		// the Goexit, or yield returns false and it is raised here.
		switchOn(&e.lead, e.exiting[n-1])
		runtime.Goexit()
	}
	panic(e.failure)
}

// Switches returns the number of scheduling events (processor
// resumptions) so far — a measure of how fine-grained the simulation's
// global operations are.
func (e *Engine) Switches() uint64 { return e.switches }

// Blocks returns the number of Block (park) events so far.
func (e *Engine) Blocks() uint64 { return e.blocks }

// FastPathHits returns the number of Sync calls that returned without a
// scheduler round-trip because the caller was still the minimum-clock
// runnable processor. Switches + FastPathHits is the total number of
// globally visible scheduling points.
func (e *Engine) FastPathHits() uint64 { return e.fastPathHits }

func (e *Engine) stateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  switches=%d fastpath=%d blocks=%d\n", e.switches, e.fastPathHits, e.blocks)
	// procs[i].id == i by construction, so the dump is already in id order.
	for _, p := range e.procs {
		switch {
		case p.done:
			fmt.Fprintf(&b, "  P%-2d done     clock=%d\n", p.id, p.clock)
		case p.blocked:
			fmt.Fprintf(&b, "  P%-2d blocked  clock=%d reason=%q\n", p.id, p.clock, p.blockReason)
		default:
			fmt.Fprintf(&b, "  P%-2d runnable clock=%d\n", p.id, p.clock)
		}
	}
	return b.String()
}
