package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
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

// Property: the heap pops processors in (clock, id) order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(clocks []uint16) bool {
		if len(clocks) == 0 {
			return true
		}
		var h procHeap
		for i, c := range clocks {
			h.push(&Proc{id: i, clock: Time(c)})
		}
		prev, ok := h.pop()
		if !ok {
			return false
		}
		for {
			next, ok := h.pop()
			if !ok {
				break
			}
			if procLess(next, prev) {
				return false
			}
			prev = next
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPopEmpty(t *testing.T) {
	var h procHeap
	if _, ok := h.pop(); ok {
		t.Fatal("pop of empty heap returned ok")
	}
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
	// Drained goroutines may take a beat to exit after signalling.
	var after int
	for i := 0; i < 100; i++ {
		runtime.Gosched()
		if after = runtime.NumGoroutine(); after <= before {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if after > before+4 {
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

// panickyBody is a four-processor body whose P1 panics with "boom" while
// P0 is parked and P2/P3 are suspended in a slow-path Sync. Every body
// records that its defers ran; P3's defer releases P1, which is no longer
// blocked — during teardown that must not re-panic.
func panickyBody(e *Engine, unwound *[4]bool) func(p *Proc) {
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
			panic("boom")
		default:
			p.Advance(Time(100 * p.ID()))
			p.Sync()
			p.Advance(1)
			p.Sync()
		}
	}
}

// runRecovered runs body on e and returns what Run panicked with.
func runRecovered(e *Engine, body func(p *Proc)) (r any) {
	defer func() { r = recover() }()
	e.Run(body)
	return nil
}

// TestBodyPanicContained pins the body-panic contract: the original panic
// value reaches Run's caller, the other bodies' defers run, repeated
// panicking runs leave no goroutine behind, and the engine is reusable
// afterwards.
func TestBodyPanicContained(t *testing.T) {
	e := NewEngine(4)
	var unwound [4]bool
	if r := runRecovered(e, panickyBody(e, &unwound)); r != "boom" {
		t.Fatalf("Run panicked with %v, want the body's own \"boom\"", r)
	}
	for i, u := range unwound {
		if !u {
			t.Errorf("P%d's defers did not run", i)
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		runRecovered(e, panickyBody(e, &unwound))
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines grew from %d to %d across 50 panicking Runs", before, after)
	}
	if finish := e.Run(func(p *Proc) { p.Advance(7); p.Sync() }); finish != 7 {
		t.Errorf("post-panic run finish = %d, want 7", finish)
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
