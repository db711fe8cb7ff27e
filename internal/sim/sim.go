// Package sim implements the execution-driven simulation kernel used by the
// z-machine reproduction. It plays the role of the SPASM framework from the
// paper: simulated processors run real Go code and trap into the simulator on
// every globally visible operation (shared memory access, synchronization).
//
// Each simulated processor body is a coroutine (iter.Pull) driven by the
// engine, so exactly one body runs at any instant and every hand-off is a
// direct coroutine switch that bypasses the Go scheduler. Every processor
// carries a local virtual clock; pure computation advances the clock without
// involving the scheduler, while globally visible operations first call Sync,
// which hands control back to the engine. The engine always resumes the
// runnable processor with the smallest clock (ties broken by processor id),
// so globally visible operations execute in nondecreasing virtual-time order
// and a simulation is deterministic and reproducible. The run queue (runq.go)
// packs each runnable processor's (clock, id) into one uint64 key, so that
// order is a single unsigned compare.
package sim

import (
	"fmt"
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
	// blockReason is a human-readable label for deadlock reports.
	blockReason string

	// The body's coroutine (coro.go): next resumes it until its next
	// slow-path trap, yield is the trap's way back to the dispatching loop,
	// and stop unwinds it at teardown.
	next  func() (yieldKind, bool)
	yield func(yieldKind) bool
	stop  func()
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

// yieldKind is what a suspended body tells the dispatching loop.
type yieldKind uint8

const (
	yieldRunnable yieldKind = iota // back on the run queue
	yieldBlocked                   // waiting for an Unblock
)

// trap suspends the body until the dispatching loop resumes it, unwinding
// it instead when the engine stopped its coroutine (teardown).
func (p *Proc) trap(k yieldKind) {
	if !p.yield(k) {
		panic(abortRun{})
	}
}

// Sync yields to the engine and returns when this processor is again the
// runnable processor with the smallest virtual clock. A processor must call
// Sync immediately before every globally visible operation; between Sync
// returning and the next yield no other processor runs, so the operation is
// atomic at the processor's current clock.
//
// Fast path: exactly one body runs at a time, so if the caller sorts before
// the run queue's root — it would be popped right back off the run queue —
// the coroutine switches to the engine and back are skipped entirely. An
// empty queue's root sorts after every processor, so a lone runnable
// processor always takes the fast path. The schedule is
// bit-identical to the slow path's: the engine would have resumed this
// processor next in either case, by the same (clock, id) order.
func (p *Proc) Sync() {
	e := p.eng
	if e.aborting {
		panic(abortRun{})
	}
	if e.runq.first(p) {
		e.fastPathHits++
		return
	}
	p.trap(yieldRunnable)
}

// Block parks the processor until another processor calls Unblock on it.
// reason is reported if the simulation deadlocks.
func (p *Proc) Block(reason string) {
	if p.eng.aborting {
		panic(abortRun{})
	}
	p.blocked = true
	p.blockReason = reason
	p.trap(yieldBlocked)
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

// abortRun is the sentinel panic that unwinds a processor body when Run
// tears down (deadlock or another body's panic); the coroutine wrapper
// recovers it.
type abortRun struct{}

// Engine schedules a fixed set of simulated processors.
type Engine struct {
	procs []*Proc
	runq  runQueue
	// aborting is set while teardown stops the unfinished coroutines: Sync
	// and Block panic(abortRun{}) instead of trapping, and Unblock
	// tolerates the stale state deferred releases see.
	aborting bool

	// Instrumentation. The hot-path counts are plain fields (the engine is
	// single-threaded) harvested into a metrics registry by PublishMetrics;
	// only the run-queue depth histogram and deadlock-drain counter are
	// recorded live, because they cannot be reconstructed afterwards.
	switches     uint64 // processor resumptions (scheduling events)
	blocks       uint64 // Block calls observed
	fastPathHits uint64 // Sync calls that skipped the switch to the engine

	mRunqDepth *metrics.Histogram // runnable procs remaining after each pop
	mDrains    *metrics.Counter   // bodies unwound by teardown
}

// RunqDepthBuckets are the inclusive upper bounds of the sim.runq_depth
// histogram: how many processors were runnable behind each scheduling pop.
// They reach memsys.MaxProcs, so no depth a machine can have overflows.
var RunqDepthBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// InstrumentMetrics attaches per-event metric handles (implements
// metrics.Instrumentable). Harvested totals are published separately by
// PublishMetrics at the end of a run.
func (e *Engine) InstrumentMetrics(r *metrics.Registry) {
	e.mRunqDepth = r.Histogram("sim.runq_depth", RunqDepthBuckets)
	e.mDrains = r.Counter("sim.deadlock_drains")
}

// PublishMetrics harvests the engine's plain instrumentation counts into r
// (implements metrics.Publisher). sim.yields is the total number of
// globally visible scheduling points: every trap costs exactly one
// fast-path hit or one full handoff, so it is the run's trap count.
func (e *Engine) PublishMetrics(r *metrics.Registry) {
	r.Counter("sim.switches").Add(e.switches)
	r.Counter("sim.blocks").Add(e.blocks)
	r.Counter("sim.fastpath_hits").Add(e.fastPathHits)
	r.Counter("sim.yields").Add(e.fastPathHits + e.switches)
}

// NewEngine creates an engine with n processors, all with clock zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	e := &Engine{
		procs: make([]*Proc, n),
		runq:  newRunQueue(n),
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
// (all unfinished processors blocked). A panic in a body reaches the caller
// of Run with its original value. Either way every other body is unwound
// first, so its defers run, and the engine stays reusable.
//
// A body that yields runnable re-enters the run queue and the next
// processor leaves it in one replace: the body's Sync took the slow path,
// so its key sorts after the root, and pushing it then popping the root
// would give the same result in two passes. Run also panics, naming the
// processor, if a clock grows past what a run-queue key can hold.
func (e *Engine) Run(body func(p *Proc)) Time {
	q := &e.runq
	q.reset()
	e.start(body)
	defer e.contain()
	for _, p := range e.procs {
		q.push(q.key(p))
	}
	remaining := len(e.procs)
	var finish Time
	for k := q.pop(); ; {
		if k == empty {
			panic("sim: deadlock\n" + e.stateDump())
		}
		p := e.procs[q.id(k)]
		e.switches++
		e.mRunqDepth.Observe(uint64(q.n))
		switch kind, live := p.next(); {
		case !live:
			if p.clock > finish {
				finish = p.clock
			}
			if remaining--; remaining == 0 {
				return finish
			}
			k = q.pop()
		case kind == yieldBlocked:
			e.blocks++
			// Parked; an Unblock will re-queue it.
			k = q.pop()
		default:
			k = q.replace(q.key(p))
		}
	}
}

// start resets every processor and makes body its coroutine.
func (e *Engine) start(body func(p *Proc)) {
	e.aborting = false
	for _, p := range e.procs {
		p.clock = 0
		p.blocked = false
		p.start(body)
	}
}

// contain is deferred by Run. When the run panics — a deadlock, or a body
// panic surfacing from its coroutine's next — it stops every unfinished
// coroutine before the panic continues to Run's caller, so no body is left
// suspended and repeated recovered Runs do not accumulate goroutines.
// Stopping a suspended body makes its pending trap panic abortRun, which
// runs the body's defers; aborting keeps any Sync, Block or Unblock those
// defers reach from trapping or re-panicking.
func (e *Engine) contain() {
	r := recover()
	if r == nil {
		return
	}
	e.aborting = true
	for _, p := range e.procs {
		if !p.done {
			p.unwind()
			p.done = true
			e.mDrains.Inc()
		}
	}
	e.aborting = false
	panic(r)
}

// unwind stops p's coroutine. A second panic raised by the body's defers
// while it unwinds is dropped: the run is already failing with the first.
func (p *Proc) unwind() {
	defer func() { _ = recover() }()
	p.stop()
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
