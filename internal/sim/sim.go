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
// and a simulation is deterministic and reproducible.
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
//
//zlint:confine global scheduler bookkeeping: Unblock (and the engine's dispatch bookkeeping) mutates the woken processor from the releasing processor's trap, so Proc state is cross-shard by design; the engine serializes it
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

	// Sharded mode (see shard.go). shd is the owning shard (nil on a serial
	// engine); pscope classifies the pending operation the processor will
	// perform when next dispatched. probe, when non-nil, defers that
	// classification to dispatch time (SyncScoped): the engine evaluates it
	// exactly once, at the serial-prefix point that actually dispatches the
	// operation (boundary, serial fast path, or stream), so the
	// classification is a pure function of the serial schedule and a stale
	// pre-trap snapshot can never leak into the accounting.
	// dispatchAt is the processor's clock at its most recent dispatch
	// (fast-path continuations included); together with the processor id it
	// is the serial-schedule ordering key of everything the processor does
	// until its next trap, which is what the machine layer keys staged
	// trace/checker events by.
	shd        *shard
	pscope     scope
	probe      func() bool
	dispatchAt Time
}

// ID returns the processor number in [0, NumProcs).
func (p *Proc) ID() int { return p.id }

// Clock returns the processor's current virtual time.
func (p *Proc) Clock() Time { return p.clock }

// Advance moves the processor's local clock forward by c cycles of pure
// computation. It does not involve the scheduler: computation is only
// locally visible.
func (p *Proc) Advance(c Time) { p.clock += c }

// DispatchedAt returns the processor's clock at its most recent dispatch
// (sharded mode). Paired with the processor id it totally orders dispatches
// in the serial schedule, which makes it the merge key for observation
// events staged during local windows.
func (p *Proc) DispatchedAt() Time { return p.dispatchAt }

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
// Fast path: exactly one body runs at a time, so if the caller's clock is
// still ahead of no runnable processor — it would be popped right back off
// the run queue — the coroutine switches to the engine and back are skipped
// entirely. The schedule is bit-identical to the slow path's: the engine
// would have resumed this processor next in either case, by the same
// (clock, id) order.
func (p *Proc) Sync() {
	e := p.eng
	if e.shards != nil {
		p.syncSharded(scopeGlobal)
		return
	}
	if e.aborting {
		panic(abortRun{})
	}
	if len(e.runq) == 0 || procLess(p, e.runq[0]) {
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
		panic(fmt.Sprintf("sim: Unblock of runnable processor %d", p.id))
	}
	if e.shards != nil {
		// Wake-ups mutate another shard's run queue, so they are only legal
		// from a serialized global-scope operation (the window boundary),
		// where exactly one body runs. A local-scope operation waking
		// anyone would race and could reorder against already-executed
		// global operations. Both checks are skipped while teardown
		// unwinds bodies (deferred releases run with stale state).
		if e.phase == phaseLocal {
			panic(fmt.Sprintf("sim: Unblock of processor %d from inside a local shard window; wake-ups are only legal from global-scope operations", p.id))
		}
		if e.curScope == scopeLocal && !e.aborting {
			panic(fmt.Sprintf("sim: Unblock of processor %d from a local-scope (SyncLocal) operation; wake-ups are only legal from global-scope (Sync) operations", p.id))
		}
		// Lookahead contract: a wake-up ordering below an operation the
		// target shard already dispatched inside a local window cannot be
		// scheduled in serial (clock, id) order anymore — the caller's
		// lookahead promise (SetLookahead) was too large. Fail loudly,
		// before touching the target's state, instead of diverging
		// silently.
		wake := p.clock
		if t > wake {
			wake = t
		}
		if s := p.shd; !e.aborting && (wake < s.wmClock || (wake == s.wmClock && p.id < s.wmID)) {
			panic(fmt.Sprintf("sim: Unblock of processor %d at clock %d orders below shard %d's window watermark (clock %d, id %d); lookahead %d violates the cross-shard latency bound",
				p.id, wake, s.id, s.wmClock, s.wmID, e.lookahead))
		}
		// curShard is the shard of the processor running the current window
		// boundary (fast-pathed continuations included: only the serially
		// dispatched processor can be executing here).
		if e.curShard != nil && e.curShard != p.shd {
			e.xUnblocks++
		}
		p.pscope = scopeGlobal // the woken processor's next operation has unknown scope
		p.probe = nil
		p.blocked = false
		p.blockReason = ""
		p.AdvanceTo(t)
		p.shd.runq.push(p)
		return
	}
	p.blocked = false
	p.blockReason = ""
	p.AdvanceTo(t)
	e.push(p)
}

// Blocked reports whether the processor is currently parked.
func (p *Proc) Blocked() bool { return p.blocked }

// abortRun is the sentinel panic that unwinds a processor body when Run
// tears down (deadlock or another body's panic); the coroutine wrapper
// recovers it.
type abortRun struct{}

// Engine schedules a fixed set of simulated processors.
//
//zlint:confine global the scheduler is machine-wide by construction: any processor's trap can push any other processor onto the run queue; the coordinator serializes it
type Engine struct {
	procs []*Proc
	runq  procHeap
	// aborting is set while teardown stops the unfinished coroutines: Sync
	// and Block panic(abortRun{}) instead of trapping, and Unblock
	// tolerates the stale state deferred releases see.
	aborting bool

	// Sharded mode (see shard.go); shards is nil on a serial engine.
	// phase, horizon, and serialProc are written by the coordinator only
	// while no processor body runs (coroutine switches and the window
	// barrier order every read after the write).
	shards    []*shard
	lookahead Time
	phase     phaseKind
	horizon   horizon
	curShard  *shard      // shard of the last serially dispatched processor
	curScope  scope       // declared scope of the serially running operation
	phaseDone chan *shard // window-barrier rendezvous
	windows   uint64      // window phases advanced
	streams   uint64      // window phases whose minimal shard ran a stream
	xUnblocks uint64      // wake-ups delivered across shards
	// quiesce, when set, is called by the coordinator at every serial-phase
	// iteration with the (clock, id) key of the minimal pending operation
	// across all shards. All processors are parked at that instant and every
	// future dispatch orders at or above the key, so the callee may flush
	// anything staged strictly below it (the machine layer merges per-shard
	// observation buffers here).
	quiesce func(clock Time, id int)

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
var RunqDepthBuckets = []uint64{0, 1, 2, 4, 8, 16, 32, 64} //zlint:ignore globalmut immutable bucket bounds, never written after package init

// InstrumentMetrics attaches per-event metric handles (implements
// metrics.Instrumentable). Harvested totals are published separately by
// PublishMetrics at the end of a run.
func (e *Engine) InstrumentMetrics(r *metrics.Registry) {
	e.mRunqDepth = r.Histogram("sim.runq_depth", RunqDepthBuckets)
	e.mDrains = r.Counter("sim.deadlock_drains")
}

// PublishMetrics harvests the engine's plain instrumentation counts into r
// (implements metrics.Publisher). sim.yields is the total number of
// globally visible scheduling points: fast-path hits plus full handoffs.
// Every trap costs exactly one fast-path hit or one switch in any mode, so
// sim.yields is identical between serial and sharded runs of the same
// simulation even though the switch/fast-path split shifts once local
// windows dispatch scope-classified machine traps concurrently (benchdiff
// therefore gates sim.yields across modes, and sim.switches /
// sim.fastpath_hits only between runs of the same shard count). On a
// sharded engine the per-shard window counts are folded in and the
// sharded-mode counters (sim.shard.*) are published alongside.
func (e *Engine) PublishMetrics(r *metrics.Registry) {
	sw, fp := e.Switches(), e.FastPathHits()
	r.Counter("sim.switches").Add(sw)
	r.Counter("sim.blocks").Add(e.Blocks())
	r.Counter("sim.fastpath_hits").Add(fp)
	r.Counter("sim.yields").Add(fp + sw)
	if e.shards != nil {
		e.shardMetrics(r)
	}
}

// NewEngine creates an engine with n processors, all with clock zero.
func NewEngine(n int) *Engine {
	if n <= 0 {
		panic("sim: engine needs at least one processor")
	}
	e := &Engine{
		procs: make([]*Proc, 0, n),
		runq:  make(procHeap, 0, n),
	}
	for i := 0; i < n; i++ {
		e.procs = append(e.procs, &Proc{id: i, eng: e})
	}
	return e
}

// NumProcs returns the number of processors.
func (e *Engine) NumProcs() int { return len(e.procs) }

// Proc returns processor i.
func (e *Engine) Proc(i int) *Proc { return e.procs[i] }

func (e *Engine) push(p *Proc) { e.runq.push(p) }

// Run executes body on every processor (as coroutines that run one at a
// time) and returns the maximum finishing clock, i.e. the parallel
// execution time. Run panics with a state dump if the simulation deadlocks
// (all unfinished processors blocked). A panic in a body reaches the caller
// of Run with its original value. Either way every other body is unwound
// first, so its defers run, and the engine stays reusable.
func (e *Engine) Run(body func(p *Proc)) Time {
	if e.shards != nil {
		return e.runSharded(body)
	}
	e.runq = e.runq[:0]
	e.start(body)
	defer e.contain()
	for _, p := range e.procs {
		e.push(p)
	}
	remaining := len(e.procs)
	var finish Time
	for remaining > 0 {
		p, ok := e.runq.pop()
		if !ok {
			panic("sim: deadlock\n" + e.stateDump())
		}
		e.switches++
		e.mRunqDepth.Observe(uint64(len(e.runq)))
		switch kind, live := p.next(); {
		case !live:
			remaining--
			if p.clock > finish {
				finish = p.clock
			}
		case kind == yieldBlocked:
			e.blocks++
			// Parked; an Unblock will re-queue it.
		default:
			e.push(p)
		}
	}
	return finish
}

// start resets every processor and makes body its coroutine.
func (e *Engine) start(body func(p *Proc)) {
	e.aborting = false
	for _, p := range e.procs {
		p.clock = 0
		p.blocked = false
		p.pscope = scopeGlobal // a body's first operation has unknown scope
		p.probe = nil
		p.dispatchAt = 0
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
	e.phase = phaseSerial
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
// global operations are. On a sharded engine it includes window dispatches.
func (e *Engine) Switches() uint64 {
	n := e.switches
	for _, s := range e.shards {
		n += s.switches
	}
	return n
}

// Blocks returns the number of Block (park) events so far.
func (e *Engine) Blocks() uint64 {
	n := e.blocks
	for _, s := range e.shards {
		n += s.blocks
	}
	return n
}

// FastPathHits returns the number of Sync calls that returned without a
// scheduler round-trip because the caller was still the minimum-clock
// runnable processor. Switches + FastPathHits is the total number of
// globally visible scheduling points.
func (e *Engine) FastPathHits() uint64 {
	n := e.fastPathHits
	for _, s := range e.shards {
		n += s.fastPathHits
	}
	return n
}

// Windows returns the number of window phases advanced (sharded mode).
func (e *Engine) Windows() uint64 { return e.windows }

// Streams returns how many of those window phases ran a serial-prefix
// stream on the minimal shard (sharded mode).
func (e *Engine) Streams() uint64 { return e.streams }

// CrossShardUnblocks returns the number of wake-ups delivered across
// shards (sharded mode).
func (e *Engine) CrossShardUnblocks() uint64 { return e.xUnblocks }

func (e *Engine) stateDump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "  switches=%d fastpath=%d blocks=%d\n", e.Switches(), e.FastPathHits(), e.Blocks())
	if e.shards != nil {
		e.shardStateDump(&b)
	}
	// procs[i].id == i by construction, so the dump is already in id order.
	for _, p := range e.procs {
		shard := ""
		if p.shd != nil {
			shard = fmt.Sprintf(" shard=%d", p.shd.id)
		}
		switch {
		case p.done:
			fmt.Fprintf(&b, "  P%-2d done     clock=%d%s\n", p.id, p.clock, shard)
		case p.blocked:
			fmt.Fprintf(&b, "  P%-2d blocked  clock=%d%s reason=%q\n", p.id, p.clock, shard, p.blockReason)
		default:
			fmt.Fprintf(&b, "  P%-2d runnable clock=%d%s\n", p.id, p.clock, shard)
		}
	}
	return b.String()
}
