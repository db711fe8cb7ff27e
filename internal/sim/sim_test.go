package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zsim/internal/metrics"
)

func TestSingleProcFinish(t *testing.T) {
	e := NewEngine(1)
	finish := e.Run(func(p *Proc) {
		p.Advance(100)
	})
	if finish != 100 {
		t.Fatalf("finish = %d, want 100", finish)
	}
}

func TestFinishIsMaxClock(t *testing.T) {
	e := NewEngine(4)
	finish := e.Run(func(p *Proc) {
		p.Advance(Time(10 * (p.ID() + 1)))
	})
	if finish != 40 {
		t.Fatalf("finish = %d, want 40", finish)
	}
}

// TestGlobalTimeOrder checks the core scheduling invariant: operations
// performed after Sync() occur in nondecreasing virtual time across all
// processors.
func TestGlobalTimeOrder(t *testing.T) {
	e := NewEngine(8)
	var last Time
	var order []int
	rng := rand.New(rand.NewSource(7))
	steps := make([][]Time, 8)
	for i := range steps {
		for j := 0; j < 50; j++ {
			steps[i] = append(steps[i], Time(rng.Intn(100)))
		}
	}
	e.Run(func(p *Proc) {
		for _, s := range steps[p.ID()] {
			p.Advance(s)
			p.Sync()
			if p.Clock() < last {
				t.Errorf("time went backwards: %d after %d", p.Clock(), last)
			}
			last = p.Clock()
			order = append(order, p.ID())
		}
	})
	if len(order) != 8*50 {
		t.Fatalf("saw %d ops, want %d", len(order), 8*50)
	}
}

// TestDeterminism runs an identical mixed workload twice and requires the
// same interleaving.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var log []string
		e := NewEngine(6)
		e.Run(func(p *Proc) {
			r := rand.New(rand.NewSource(int64(p.ID())))
			for i := 0; i < 30; i++ {
				p.Advance(Time(r.Intn(17)))
				p.Sync()
				log = append(log, fmt.Sprintf("p%d@%d", p.ID(), p.Clock()))
			}
		})
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("interleaving differs at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestTieBreakByID(t *testing.T) {
	e := NewEngine(4)
	var order []int
	e.Run(func(p *Proc) {
		p.Sync() // all at clock 0
		order = append(order, p.ID())
	})
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want ids ascending", order)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	e := NewEngine(2)
	finish := e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(5)
			p.Sync()
			p.Block("wait for P1")
			// P1 unblocked us at time 50.
			if p.Clock() != 50 {
				t.Errorf("P0 clock after unblock = %d, want 50", p.Clock())
			}
		} else {
			p.Advance(50)
			p.Sync()
			other := e.Proc(0)
			if !other.Blocked() {
				t.Errorf("P0 should be blocked at virtual time 50")
			}
			other.Unblock(p.Clock())
		}
	})
	if finish != 50 {
		t.Fatalf("finish = %d, want 50", finish)
	}
}

func TestUnblockDoesNotRewindClock(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Advance(100)
			p.Sync()
			p.Block("wait")
			if p.Clock() != 100 {
				t.Errorf("clock rewound to %d", p.Clock())
			}
		} else {
			p.Advance(200)
			p.Sync()
			e.Proc(0).Unblock(10) // earlier than P0's clock
		}
	})
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected deadlock panic")
		}
	}()
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		p.Block("forever")
	})
}

func TestUnblockRunnablePanics(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID() == 1 {
			defer func() {
				if recover() == nil {
					t.Error("expected panic unblocking runnable proc")
				}
			}()
			e.Proc(0).Unblock(0)
		}
		p.Advance(1)
	})
}

// TestUnblockFinishedPanics: unblocking a processor whose body has
// returned is a bug, and the panic must call it finished, not runnable.
func TestUnblockFinishedPanics(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			return
		}
		p.Advance(5)
		p.Sync() // P0 finishes at clock 0 first
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "Unblock of finished processor 0") {
				t.Errorf("Unblock of a finished processor panicked with %v", r)
			}
		}()
		e.Proc(0).Unblock(p.Clock())
	})
}

// TestClockPastKeyRangePanics: a clock that does not fit a run-queue key
// makes Run panic with a message naming the processor and its clock, whether
// the processor traps in Sync or is unblocked at that time, instead of
// wrapping and sorting the processor too early.
func TestClockPastKeyRangePanics(t *testing.T) {
	for _, tc := range []struct {
		name  string
		procs int
		named int // the processor the panic must name
		body  func(e *Engine, big Time) func(p *Proc)
	}{
		{"sync", 2, 1, func(e *Engine, big Time) func(p *Proc) {
			return func(p *Proc) {
				if p.ID() == 1 {
					p.AdvanceTo(big)
					p.Sync()
				}
			}
		}},
		{"lone-sync", 1, 0, func(e *Engine, big Time) func(p *Proc) {
			return func(p *Proc) {
				p.AdvanceTo(big)
				p.Sync()
				t.Error("a lone processor's Sync returned with a clock past the key range")
			}
		}},
		{"unblock", 2, 0, func(e *Engine, big Time) func(p *Proc) {
			return func(p *Proc) {
				if p.ID() == 0 {
					p.Block("wait")
					return
				}
				p.Advance(1)
				p.Sync()
				e.Proc(0).Unblock(big)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(tc.procs)
			big := e.runq.limit
			r := runRecovered(e, tc.body(e, big))
			msg, _ := r.(string)
			want := fmt.Sprintf("processor %d's clock %d is past the run queue's key range", tc.named, big)
			if !strings.Contains(msg, want) {
				t.Fatalf("Run panicked with %v, want a message containing %q", r, want)
			}
			if f := e.Run(func(p *Proc) { p.Advance(3); p.Sync() }); f != 3 {
				t.Fatalf("engine not reusable after the guard's panic: finish = %d, want 3", f)
			}
		})
	}
}

// TestDispatchOracle checks the dispatch rule itself, not just its
// consequences: whenever Sync or Block returns, the running processor
// precedes every other runnable, unfinished processor under (clock, id),
// found by scanning every processor. Bodies advance by random amounts, and
// some block until another processor unblocks them.
func TestDispatchOracle(t *testing.T) {
	for _, procs := range []int{1, 2, 3, 64, 1024} {
		e := NewEngine(procs)
		rng := rand.New(rand.NewSource(int64(procs)))
		var waiters []*Proc
		runnable := procs
		steps := 40
		if procs > 64 {
			steps = 8
		}
		var violation string // the first one; the bodies run off the test goroutine
		check := func(p *Proc, after string) {
			if v := dispatchViolation(e, p, after); violation == "" && v != "" {
				violation = fmt.Sprintf("%d procs: %s", procs, v)
			}
		}
		e.Run(func(p *Proc) {
			defer func() {
				runnable--
				for _, w := range waiters {
					w.Unblock(p.Clock())
				}
				runnable += len(waiters)
				waiters = waiters[:0]
			}()
			for i := 0; i < steps; i++ {
				p.Advance(Time(rng.Intn(3) * rng.Intn(20)))
				p.Sync()
				check(p, "Sync")
				switch r := rng.Intn(8); {
				case r == 0 && len(waiters) > 0:
					w := waiters[0]
					waiters = waiters[1:]
					runnable++
					w.Unblock(p.Clock() + Time(rng.Intn(10)))
				case r == 1 && runnable > 1:
					waiters = append(waiters, p)
					runnable--
					p.Block("oracle")
					check(p, "Block")
				}
			}
		})
		if violation != "" {
			t.Fatal(violation)
		}
	}
}

// dispatchViolation scans every processor for a runnable, unfinished one
// that precedes the running processor p under (clock, id), and describes
// the first it finds; after names the call p just returned from.
func dispatchViolation(e *Engine, p *Proc, after string) string {
	for _, o := range e.procs {
		if o != p && !o.done && !o.blocked && (o.clock < p.clock || o.clock == p.clock && o.id < p.id) {
			return fmt.Sprintf("P%d runs at %d after %s, but P%d is runnable at %d", p.id, p.clock, after, o.id, o.clock)
		}
	}
	return ""
}

// kernelFailure is what a FuzzKernel body panics with.
type kernelFailure struct{ step int }

// FuzzKernel runs programs from the fuzz input on 1–64 processors
// (procs%64 + 1). The processors take steps from ops in turn, one byte per
// step: the byte's low three bits pick Sync (0–3), Block (4), unblocking the
// longest waiter (5), returning (6) or computing only (7), and its high five
// bits are the cycles to advance by first. A body returns once ops run out,
// and a returning body unblocks every waiter, so a run deadlocks only when
// its last runnable processor blocks. fail%3 picks whether the body taking
// step fail/3 fails instead: not at all (0), by a panic (1) or by
// runtime.Goexit (2). A nonzero exit picks a processor, (exit-1)%procs,
// whose deferred call raises runtime.Goexit once its body returns or is
// unwound, so the run then ends by Goexit whatever else ended it. Which
// coroutine each goroutine is parked on when a run fails depends on the
// whole schedule, so this reaches teardown states no hand-written test
// pins.
//
// Every Sync and Block return is checked against a scan of every
// processor, as in TestDispatchOracle. Every run must then end as its
// program says: with the finishing clock, the body's own panic value,
// runtime.Goexit in Run's caller, or the deadlock dump. Every started
// body's defers ran, sim.deadlock_drains counts the unfinished bodies the
// teardown unwound, no goroutine is left behind, and the engine runs again.
func FuzzKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	mixed := make([]byte, 600)
	rng.Read(mixed)
	f.Add(uint8(0), uint16(0), uint8(0), []byte{})
	f.Add(uint8(3), uint16(0), uint8(0), []byte{8, 4, 1, 5, 16, 6, 0, 0, 4, 0, 13, 7, 2})
	f.Add(uint8(3), uint16(3*5+1), uint8(0), []byte{8, 4, 1, 12, 16, 0, 0, 9, 4, 0, 13, 7, 2})
	f.Add(uint8(3), uint16(3*5+2), uint8(0), []byte{8, 4, 1, 12, 16, 0, 0, 9, 4, 0, 13, 7, 2})
	f.Add(uint8(1), uint16(3*0+1), uint8(0), []byte{0, 0})
	f.Add(uint8(2), uint16(3*0+2), uint8(0), []byte{0, 0})
	f.Add(uint8(2), uint16(0), uint8(0), []byte{6, 4, 4})
	f.Add(uint8(63), uint16(0), uint8(0), bytes.Repeat([]byte{4}, 64))
	f.Add(uint8(63), uint16(0), uint8(0), mixed)
	f.Add(uint8(63), uint16(3*150+1), uint8(0), mixed)
	f.Add(uint8(63), uint16(3*150+2), uint8(0), mixed)
	f.Add(uint8(40), uint16(3*90+2), uint8(0), mixed[300:])
	f.Add(uint8(3), uint16(3*5+1), uint8(1), []byte{8, 4, 1, 12, 16, 0, 0, 9, 4, 0, 13, 7, 2})
	f.Add(uint8(3), uint16(3*5+2), uint8(3), []byte{8, 4, 1, 12, 16, 0, 0, 9, 4, 0, 13, 7, 2})
	f.Add(uint8(1), uint16(0), uint8(2), []byte{0, 0})
	f.Add(uint8(1), uint16(0), uint8(1), []byte{48, 36, 36})
	f.Add(uint8(63), uint16(0), uint8(10), bytes.Repeat([]byte{4}, 64))
	f.Add(uint8(63), uint16(0), uint8(33), mixed)
	f.Add(uint8(63), uint16(3*150+1), uint8(7), mixed)
	f.Add(uint8(63), uint16(3*150+2), uint8(60), mixed)
	f.Fuzz(func(t *testing.T, procs uint8, fail uint16, exit uint8, ops []byte) {
		n, exiter := 1+int(procs%64), -1
		if exit > 0 {
			exiter = (int(exit) - 1) % n
		}
		checkKernel(t, n, int(fail%3), int(fail/3), exiter, ops)
	})
}

// checkKernel runs one FuzzKernel program; failKind is 0 (none), 1 (panic)
// or 2 (runtime.Goexit), and exiter is the processor whose deferred call
// raises runtime.Goexit, or -1 for none.
func checkKernel(t *testing.T, procs, failKind, failStep, exiter int, ops []byte) {
	defer metrics.Enable(metrics.Enable(true))
	reg := metrics.NewRegistry()
	e := NewEngine(procs)
	e.InstrumentMetrics(reg)
	var (
		step, runnable = 0, procs
		waiters        []*Proc
		started        = make([]bool, procs)
		deferred       = make([]bool, procs) // the body's defers ran
		returned       int                   // bodies that returned
		want           Time                  // the largest clock a body returned at
		failed         bool                  // a body took the failing step
		deadlocked     bool                  // the last runnable processor blocked
		violation      string
	)
	check := func(p *Proc, after string) {
		if v := dispatchViolation(e, p, after); violation == "" {
			violation = v
		}
	}
	body := func(p *Proc) {
		started[p.id] = true
		if p.id == exiter {
			defer runtime.Goexit()
		}
		defer func() {
			deferred[p.id] = true
			for _, w := range waiters {
				w.Unblock(p.Clock())
			}
			runnable += len(waiters)
			waiters = waiters[:0]
		}()
	program:
		for step < len(ops) {
			i := step
			step++
			if i == failStep && failKind != 0 {
				failed = true
				if failKind == 1 {
					panic(kernelFailure{i})
				}
				runtime.Goexit()
			}
			b := ops[i]
			p.Advance(Time(b >> 3))
			switch b & 7 {
			case 4:
				waiters = append(waiters, p)
				if runnable--; runnable == 0 {
					deadlocked = true
				}
				p.Block("fuzz")
				check(p, "Block")
			case 5:
				if len(waiters) > 0 {
					w := waiters[0]
					waiters = waiters[1:]
					runnable++
					w.Unblock(p.Clock() + Time(b>>3))
				}
			case 6:
				break program
			case 7:
			default:
				p.Sync()
				check(p, "Sync")
			}
		}
		returned++
		runnable--
		want = max(want, p.Clock())
	}

	before := runtime.NumGoroutine()
	finish, goexited, r := runOnGoroutine(e, body)
	if violation != "" {
		t.Fatal(violation)
	}
	drains := procs - returned
	if failed {
		drains-- // the failing body is not unwound
	}
	switch {
	case failed && failKind == 2 || exiter >= 0 && started[exiter]:
		if !goexited {
			t.Fatalf("Run's caller ended with %v, want runtime.Goexit", r)
		}
	case failed:
		if r != (kernelFailure{failStep}) {
			t.Fatalf("Run panicked with %v (Goexit: %v), want the body's kernelFailure{%d}", r, goexited, failStep)
		}
	case deadlocked:
		if msg, _ := r.(string); !strings.HasPrefix(msg, "sim: deadlock\n") {
			t.Fatalf("Run panicked with %v (Goexit: %v), want the deadlock dump", r, goexited)
		}
	default:
		if goexited || r != nil {
			t.Fatalf("Run panicked with %v (Goexit: %v), want it to return", r, goexited)
		}
		if finish != want || returned != procs {
			t.Fatalf("Run returned %d after %d of %d bodies returned, want %d", finish, returned, procs, want)
		}
	}
	for id := range started {
		if started[id] && !deferred[id] {
			t.Errorf("P%d's defers did not run", id)
		}
	}
	if got := reg.Snapshot().Counter("sim.deadlock_drains"); got != uint64(drains) {
		t.Errorf("sim.deadlock_drains = %d, want the %d unfinished bodies the teardown unwound", got, drains)
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew from %d to %d across the run", before, after)
	}
	if finish := e.Run(func(p *Proc) { p.Advance(Time(p.id)); p.Sync() }); finish != Time(procs-1) {
		t.Errorf("the engine's next run finished at %d, want %d", finish, procs-1)
	}
}

func TestRunTwiceResetsState(t *testing.T) {
	e := NewEngine(3)
	f1 := e.Run(func(p *Proc) { p.Advance(10) })
	f2 := e.Run(func(p *Proc) { p.Advance(20) })
	if f1 != 10 || f2 != 20 {
		t.Fatalf("f1=%d f2=%d, want 10, 20", f1, f2)
	}
}

func TestAdvanceTo(t *testing.T) {
	e := NewEngine(1)
	e.Run(func(p *Proc) {
		p.AdvanceTo(42)
		if p.Clock() != 42 {
			t.Errorf("clock = %d, want 42", p.Clock())
		}
		p.AdvanceTo(10) // no rewind
		if p.Clock() != 42 {
			t.Errorf("clock rewound to %d", p.Clock())
		}
	})
}

// TestOneRunnerAtATime verifies mutual exclusion between processor bodies:
// shared state mutated without locks must never race. Run under -race this
// is a strong check of the engine's handshake.
func TestOneRunnerAtATime(t *testing.T) {
	e := NewEngine(8)
	var inside int32
	e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ {
			if atomic.AddInt32(&inside, 1) != 1 {
				t.Error("two processors running concurrently")
			}
			p.Advance(1)
			atomic.AddInt32(&inside, -1)
			p.Sync()
		}
	})
}

// TestFastPathCountsHits: a lone runnable processor (or one strictly behind
// every other runnable) re-enters Sync without a scheduler round-trip, and
// the engine counts those skipped handoffs.
func TestFastPathCountsHits(t *testing.T) {
	e := NewEngine(1)
	e.Run(func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Advance(1)
			p.Sync()
		}
	})
	if e.FastPathHits() != 100 {
		t.Fatalf("fast-path hits = %d, want 100 (single processor is always the minimum)", e.FastPathHits())
	}
	if e.Switches() != 1 {
		t.Fatalf("switches = %d, want 1 (only the initial resume)", e.Switches())
	}
}

// TestFastPathRespectsTieBreak: at equal clocks the smaller id runs first,
// so a larger-id processor must NOT take the fast path past a queued
// smaller id.
func TestFastPathRespectsTieBreak(t *testing.T) {
	e := NewEngine(2)
	var order []int
	e.Run(func(p *Proc) {
		p.Sync() // both at clock 0: P1's Sync must yield to P0
		order = append(order, p.ID())
		p.Sync() // still equal clocks
		order = append(order, p.ID())
	})
	want := []int{0, 0, 1, 1} // P0 fast-paths through both Syncs, then P1 runs
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// TestFastPathScheduleMatchesSlowPath pins the global schedule of a mixed
// workload; the fast path must not change which processor performs the nth
// globally visible operation, nor at what clock.
func TestFastPathScheduleMatchesSlowPath(t *testing.T) {
	var log []string
	e := NewEngine(4)
	e.Run(func(p *Proc) {
		r := rand.New(rand.NewSource(int64(p.ID()) + 3))
		for i := 0; i < 20; i++ {
			p.Advance(Time(r.Intn(9)))
			p.Sync()
			log = append(log, fmt.Sprintf("p%d@%d", p.ID(), p.Clock()))
		}
	})
	if e.FastPathHits() == 0 {
		t.Fatal("expected some fast-path hits in a mixed workload")
	}
	// The (clock, id) order of globally visible operations is the kernel's
	// contract; verify it directly.
	for i := 1; i < len(log); i++ {
		var c0, c1 Time
		var id0, id1 int
		fmt.Sscanf(log[i-1], "p%d@%d", &id0, &c0)
		fmt.Sscanf(log[i], "p%d@%d", &id1, &c1)
		if c1 < c0 {
			t.Fatalf("operation %d at clock %d after clock %d", i, c1, c0)
		}
	}
}

// TestDeadlockDrainsGoroutines: a deadlock panic must unwind the parked
// processor goroutines, so repeated recovered Runs don't accumulate them.
func TestDeadlockDrainsGoroutines(t *testing.T) {
	deadlock := func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected deadlock panic")
			}
		}()
		e := NewEngine(4)
		e.Run(func(p *Proc) {
			if p.ID() == 0 {
				p.Advance(10)
				p.Sync()
				return // P0 finishes; the others park forever
			}
			p.Block("forever")
		})
	}
	deadlock() // warm up any runtime-internal goroutines
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		deadlock()
	}
	if after := settleGoroutines(before); after > before+4 {
		t.Fatalf("goroutines grew from %d to %d across 50 deadlocked Runs", before, after)
	}
}

// TestDeadlockDrainRunsDefers: defers of parked bodies run during the
// teardown (the abort unwinds them), including ones that unblock other
// parked processors.
func TestDeadlockDrainRunsDefers(t *testing.T) {
	var unwound [3]bool
	func() {
		defer func() { recover() }()
		e := NewEngine(3)
		e.Run(func(p *Proc) {
			defer func() {
				unwound[p.ID()] = true
				if p.ID() == 0 {
					// A release-like defer: hand off to P1 mid-teardown.
					if q := e.Proc(1); q.Blocked() {
						q.Unblock(p.Clock())
					}
				}
			}()
			p.Block("forever")
		})
	}()
	for i, u := range unwound {
		if !u {
			t.Fatalf("P%d's defer never ran during deadlock teardown", i)
		}
	}
}

// TestEngineReusableAfterDeadlock: after a drained deadlock panic the same
// engine can run again cleanly.
func TestEngineReusableAfterDeadlock(t *testing.T) {
	e := NewEngine(2)
	func() {
		defer func() { recover() }()
		e.Run(func(p *Proc) { p.Block("forever") })
	}()
	finish := e.Run(func(p *Proc) { p.Advance(7) })
	if finish != 7 {
		t.Fatalf("finish = %d, want 7", finish)
	}
}

// panickyBody is a four-processor body whose P1 calls fail while P0 is
// parked and P2/P3 are suspended in a slow-path Sync. Every body records
// that its defers ran; P3's defer releases P1, which is no longer blocked —
// during teardown that must not re-panic.
func panickyBody(e *Engine, unwound *[4]bool, fail func()) func(p *Proc) {
	return func(p *Proc) {
		defer func() {
			unwound[p.ID()] = true
			if p.ID() == 3 {
				e.Proc(1).Unblock(p.Clock())
			}
		}()
		switch p.ID() {
		case 0:
			p.Block("forever")
		case 1:
			p.Advance(10)
			p.Sync()
			fail()
		default:
			p.Advance(Time(100 * p.ID()))
			p.Sync()
			p.Advance(1)
			p.Sync()
		}
	}
}

func boom() { panic("boom") }

// runRecovered runs body on e and returns what Run panicked with.
func runRecovered(e *Engine, body func(p *Proc)) (r any) {
	defer func() { r = recover() }()
	e.Run(body)
	return nil
}

// runOnGoroutine runs body on e from a fresh goroutine and reports how
// Run's caller ended: with Run's result, by runtime.Goexit, or with what Run
// panicked with.
func runOnGoroutine(e *Engine, body func(p *Proc)) (finish Time, goexited bool, r any) {
	type end struct {
		finish   Time
		goexited bool
		r        any
	}
	ended := make(chan end)
	go func() {
		var x end
		returned := false
		defer func() {
			x.r = recover()
			x.goexited = !returned && x.r == nil
			ended <- x
		}()
		x.finish = e.Run(body)
		returned = true
	}()
	x := <-ended
	return x.finish, x.goexited, x.r
}

// settleGoroutines waits for runtime.NumGoroutine to fall back to at most
// want, and returns the last count: a goroutine that signalled its end may
// take a moment to exit.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > want; i++ {
		runtime.Gosched()
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestBodyPanicContained pins the body-panic contract: the original panic
// value reaches Run's caller, the other bodies' defers run, repeated
// panicking runs leave no goroutine behind, and the engine is reusable
// afterwards.
func TestBodyPanicContained(t *testing.T) {
	e := NewEngine(4)
	var unwound [4]bool
	if r := runRecovered(e, panickyBody(e, &unwound, boom)); r != "boom" {
		t.Fatalf("Run panicked with %v, want the body's own \"boom\"", r)
	}
	for i, u := range unwound {
		if !u {
			t.Errorf("P%d's defers did not run", i)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runRecovered(e, panickyBody(e, &unwound, boom))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across 50 panicking Runs", before, after)
	}
	if finish := e.Run(func(p *Proc) { p.Advance(7); p.Sync() }); finish != 7 {
		t.Errorf("post-panic run finish = %d, want 7", finish)
	}
}

// TestBodyGoexitContained: a body's runtime.Goexit (a t.FailNow inside a
// body, say) fails the run as a panic does. Every other body unwinds through
// its defers, Run's caller then exits by runtime.Goexit, no goroutine is
// left behind, and the engine runs again.
func TestBodyGoexitContained(t *testing.T) {
	e := NewEngine(4)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		var unwound [4]bool
		_, goexited, r := runOnGoroutine(e, panickyBody(e, &unwound, runtime.Goexit))
		if !goexited {
			t.Fatalf("run %d: Run's caller ended with %v, want runtime.Goexit", i, r)
		}
		for id, u := range unwound {
			if !u {
				t.Fatalf("run %d: P%d's defers did not run", i, id)
			}
		}
	}
	if after := settleGoroutines(before); after > before {
		t.Errorf("goroutines grew from %d to %d across 20 runs ended by Goexit", before, after)
	}
	if finish := e.Run(func(p *Proc) { p.Advance(7); p.Sync() }); finish != 7 {
		t.Errorf("post-Goexit run finish = %d, want 7", finish)
	}
}

// TestBodyGoexitInDeferContained: a runtime.Goexit that a body's deferred
// call raises while the teardown unwinds it (a t.FailNow in a defer, say)
// is contained too, whichever bodies raise it and however many. Every
// body's defers run. Run's caller exits by runtime.Goexit: a Goexit cannot
// be stopped, so the run's earlier panic is dropped, as a panic raised while
// unwinding is. sim.deadlock_drains counts the three unwound bodies, no
// goroutine is left behind, and the engine runs again.
func TestBodyGoexitInDeferContained(t *testing.T) {
	for _, c := range []struct {
		name    string
		fail    func()
		goexits []int // the processors whose deferred call Goexits
	}{
		{"P0", boom, []int{0}},
		{"P2", boom, []int{2}},
		{"P0+P2", boom, []int{0, 2}},
		{"P0+P2+P3", boom, []int{0, 2, 3}},
		{"P0-after-Goexit", runtime.Goexit, []int{0}},
		{"P0+P3-after-Goexit", runtime.Goexit, []int{0, 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer metrics.Enable(metrics.Enable(true))
			reg := metrics.NewRegistry()
			e := NewEngine(4)
			e.InstrumentMetrics(reg)
			before := runtime.NumGoroutine()
			const runs = 10
			for i := 0; i < runs; i++ {
				var unwound [4]bool
				body := panickyBody(e, &unwound, c.fail)
				_, goexited, r := runOnGoroutine(e, func(p *Proc) {
					for _, id := range c.goexits {
						if id == p.ID() {
							defer runtime.Goexit()
						}
					}
					body(p)
				})
				if !goexited {
					t.Fatalf("run %d: Run's caller ended with %v, want runtime.Goexit", i, r)
				}
				for id, u := range unwound {
					if !u {
						t.Fatalf("run %d: P%d's defers did not run", i, id)
					}
				}
			}
			if got := reg.Snapshot().Counter("sim.deadlock_drains"); got != 3*runs {
				t.Errorf("sim.deadlock_drains = %d after %d runs, want 3 unwound bodies a run", got, runs)
			}
			if after := settleGoroutines(before); after > before {
				t.Errorf("goroutines grew from %d to %d across %d runs", before, after, runs)
			}
			if finish := e.Run(func(p *Proc) { p.Advance(7); p.Sync() }); finish != 7 {
				t.Errorf("next run finish = %d, want 7", finish)
			}
		})
	}
}

// TestStateDumpHasFastPath: the deadlock dump carries the scheduler
// counters, including fast-path hits.
func TestStateDumpHasFastPath(t *testing.T) {
	e := NewEngine(2)
	dump := e.stateDump()
	if !strings.Contains(dump, "fastpath=") || !strings.Contains(dump, "switches=") {
		t.Fatalf("state dump missing scheduler counters:\n%s", dump)
	}
	if !strings.Contains(dump, "P0") || !strings.Contains(dump, "P1") {
		t.Fatalf("state dump missing processors:\n%s", dump)
	}
}

func BenchmarkSyncRoundtrip(b *testing.B) {
	benchmarkRoundRobin(b, 2)
}

// BenchmarkSyncRoundtrip64 is BenchmarkSyncRoundtrip among 64 processors:
// every Sync hands off to the next processor in round-robin order, the
// handoff a 64-processor machine run pays on nearly every trap.
func BenchmarkSyncRoundtrip64(b *testing.B) {
	benchmarkRoundRobin(b, 64)
}

// BenchmarkSyncRandom times Sync among 64 and 1,024 processors that
// advance by seeded random amounts of 1–64 cycles, so a yielding processor
// lands at varied depths of the run queue rather than always last, as in
// BenchmarkSyncRoundtrip64. Some Syncs take the fast path; fastpath_frac
// reports their share.
func BenchmarkSyncRandom(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			advance := make([]Time, 4096)
			for i := range advance {
				advance[i] = Time(1 + rng.Intn(64))
			}
			e := NewEngine(n)
			next := 0
			b.ResetTimer()
			e.Run(func(p *Proc) {
				for i := 0; i < b.N/n+1; i++ {
					p.Advance(advance[next%len(advance)])
					next++
					p.Sync()
				}
			})
			b.ReportMetric(float64(e.FastPathHits())/float64(e.FastPathHits()+e.Switches()), "fastpath_frac")
		})
	}
}

// benchmarkRoundRobin runs b.N slow-path Syncs spread over n processors
// advancing in lockstep, so each Sync switches to another processor.
func benchmarkRoundRobin(b *testing.B, n int) {
	e := NewEngine(n)
	b.ResetTimer()
	e.Run(func(p *Proc) {
		for i := 0; i < b.N/n+1; i++ {
			p.Advance(1)
			p.Sync()
		}
	})
	if b.N > n && e.Switches() < uint64(b.N) {
		b.Fatalf("switches = %d for %d ops: the Syncs took the fast path", e.Switches(), b.N)
	}
}

// BenchmarkEngineHotLoop measures the per-Sync cost on the kernel's fast
// path: a processor that stays behind the rest of the machine performs its
// globally visible operations without any coroutine handoff. Contrast with
// BenchmarkSyncRoundtrip, the slow-path (ping-pong) worst case.
func BenchmarkEngineHotLoop(b *testing.B) {
	e := NewEngine(4)
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
				p.Sync()
			}
			return
		}
		// Park the rest of the machine far in the future so P0 remains the
		// minimum-clock processor for the whole loop.
		p.Advance(1 << 40)
		p.Sync()
	})
	if b.N > 1 && e.FastPathHits() == 0 {
		b.Fatal("hot loop took no fast paths")
	}
	b.ReportMetric(float64(e.FastPathHits())/float64(b.N), "fastpath_hits/op")
}

func TestInstrumentationCounts(t *testing.T) {
	e := NewEngine(2)
	e.Run(func(p *Proc) {
		if p.ID() == 0 {
			p.Sync()
			p.Block("wait")
		} else {
			p.Advance(10)
			p.Sync()
			e.Proc(0).Unblock(p.Clock())
		}
	})
	if e.Switches() == 0 {
		t.Fatal("no scheduling events counted")
	}
	if e.Blocks() != 1 {
		t.Fatalf("blocks = %d, want 1", e.Blocks())
	}
}

// TestRunqDepthBucketsCoverMaxProcs: on a 1,024-processor machine, the
// largest memsys.MaxProcs allows, every run-queue depth falls in a bounded
// sim.runq_depth bucket, so the histogram still tells deep queues apart.
func TestRunqDepthBucketsCoverMaxProcs(t *testing.T) {
	defer metrics.Enable(metrics.Enable(true))
	const procs = 1024
	r := metrics.NewRegistry()
	e := NewEngine(procs)
	e.InstrumentMetrics(r)
	e.Run(func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(Time(1 + p.ID()%7))
			p.Sync()
		}
	})
	h := r.Snapshot().Histograms["sim.runq_depth"]
	if h.Max < procs/2 {
		t.Fatalf("max run-queue depth %d: the run never queued most of the machine", h.Max)
	}
	if over := h.Counts[len(h.Counts)-1]; over != 0 {
		t.Errorf("%d of %d depths overflowed the last bound %d (max depth %d)", over, h.Count, h.Bounds[len(h.Bounds)-1], h.Max)
	}
}
