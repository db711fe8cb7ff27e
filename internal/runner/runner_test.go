package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"zsim/internal/sim"
)

// withParallelism runs f with the pool bound set to n, restoring the
// previous bound afterwards.
func withParallelism(n int, f func()) {
	prev := SetParallelism(n)
	defer SetParallelism(prev)
	f()
}

func TestSetParallelism(t *testing.T) {
	prev := SetParallelism(7)
	defer SetParallelism(prev)
	if got := Parallelism(); got != 7 {
		t.Fatalf("Parallelism() = %d, want 7", got)
	}
	if old := SetParallelism(0); old != 7 {
		t.Fatalf("SetParallelism returned %d, want 7", old)
	}
	if got := Parallelism(); got < 1 {
		t.Fatalf("SetParallelism(0) left bound %d, want >= 1 (GOMAXPROCS)", got)
	}
}

// TestGridCollectsByIndex checks results land at their cell index for both
// the serial and the pooled path.
func TestGridCollectsByIndex(t *testing.T) {
	for _, par := range []int{1, 2, 8, 64} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				got, err := Grid(100, func(i int) (int, error) { return i * i, nil })
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range got {
					if v != i*i {
						t.Fatalf("cell %d = %d, want %d", i, v, i*i)
					}
				}
			})
		})
	}
}

// TestGridErrorDrainsPool injects an erroring cell and verifies the pool
// drains cleanly (every other cell still runs, no deadlock) and that the
// smallest-index error is the one surfaced, independent of worker count.
func TestGridErrorDrainsPool(t *testing.T) {
	bang7 := errors.New("cell 7 exploded")
	bang3 := errors.New("cell 3 exploded")
	for _, par := range []int{1, 4, 16} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				ran := make([]bool, 32)
				_, err := Grid(32, func(i int) (int, error) {
					ran[i] = true
					switch i {
					case 7:
						return 0, bang7
					case 3:
						// The later-scheduled of the two errors under most
						// interleavings, but the earlier index: it must win.
						time.Sleep(time.Millisecond)
						return 0, bang3
					}
					return i, nil
				})
				if !errors.Is(err, bang3) {
					t.Fatalf("err = %v, want smallest-index error %v", err, bang3)
				}
				for i, r := range ran {
					if !r {
						t.Fatalf("cell %d never ran after another cell errored", i)
					}
				}
			})
		})
	}
}

// TestGridPanicDrainsPool checks a panicking cell is re-raised in the
// caller only after the pool has drained.
func TestGridPanicDrainsPool(t *testing.T) {
	for _, par := range []int{1, 4} {
		par := par
		t.Run(fmt.Sprintf("parallel=%d", par), func(t *testing.T) {
			withParallelism(par, func() {
				ran := make([]bool, 16)
				defer func() {
					r := recover()
					if r == nil {
						t.Fatal("expected the cell panic to propagate")
					}
					if fmt.Sprint(r) != "boom 5" {
						t.Fatalf("recovered %v, want smallest-index panic \"boom 5\"", r)
					}
					for i, v := range ran {
						if !v {
							t.Fatalf("cell %d never ran after another cell panicked", i)
						}
					}
				}()
				Grid(16, func(i int) (int, error) {
					ran[i] = true
					if i == 5 || i == 11 {
						panic(fmt.Sprintf("boom %d", i))
					}
					return i, nil
				})
			})
		})
	}
}

// TestGridSurfacesBodyPanic: a simulated processor body that panics inside
// a cell is an ordinary cell panic. The engine hands it to the cell, the
// other cells still run, and Grid re-raises it, which is what lets a
// zsimd job fail without taking the daemon down.
func TestGridSurfacesBodyPanic(t *testing.T) {
	t.Run("shards=0", func(t *testing.T) {
		withParallelism(2, func() {
			var ran [8]atomic.Bool
			defer func() {
				if r := recover(); r != "body panic in cell 3" {
					t.Fatalf("recovered %v, want the body's panic", r)
				}
				for i := range ran {
					if !ran[i].Load() {
						t.Fatalf("cell %d never ran after a body panicked", i)
					}
				}
			}()
			Grid(len(ran), func(i int) (sim.Time, error) {
				ran[i].Store(true)
				return sim.NewEngine(4).Run(func(p *sim.Proc) {
					p.Advance(sim.Time(1 + p.ID()))
					p.Sync()
					if i == 3 && p.ID() == 2 {
						panic(fmt.Sprintf("body panic in cell %d", i))
					}
				}), nil
			})
		})
	})
}

// TestGridFailureSurfacing is the table-driven contract for error/panic
// surfacing: whatever mix of failing cells a grid contains, (a) every
// cell runs, (b) the surfaced error is the smallest-index one — exactly
// what a serial left-to-right run would report — and (c) a panic anywhere
// is re-raised (smallest index first) only after the pool has drained,
// taking precedence over any error. All of it independent of the worker
// bound.
func TestGridFailureSurfacing(t *testing.T) {
	const n = 24
	cases := []struct {
		name      string
		errAt     []int
		panicAt   []int
		wantErr   int // index of the error that must surface; -1 = nil error
		wantPanic int // index of the panic that must surface; -1 = no panic
	}{
		{"no failures", nil, nil, -1, -1},
		{"single error", []int{9}, nil, 9, -1},
		{"error at cell zero", []int{0}, nil, 0, -1},
		{"lowest of many errors wins", []int{17, 4, 21, 11}, nil, 4, -1},
		{"error at last cell", []int{n - 1}, nil, n - 1, -1},
		{"single panic", nil, []int{13}, -1, 13},
		{"lowest of many panics wins", nil, []int{19, 6, 10}, -1, 6},
		{"panic beats lower-index error", []int{2}, []int{20}, -1, 20},
		{"every cell errors", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}, nil, 0, -1},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 3, 16} {
			t.Run(fmt.Sprintf("%s/parallel=%d", tc.name, par), func(t *testing.T) {
				erring := make(map[int]bool, len(tc.errAt))
				for _, i := range tc.errAt {
					erring[i] = true
				}
				panicking := make(map[int]bool, len(tc.panicAt))
				for _, i := range tc.panicAt {
					panicking[i] = true
				}
				var ran [n]atomic.Bool
				checkAllRan := func() {
					t.Helper()
					for i := range ran {
						if !ran[i].Load() {
							t.Fatalf("cell %d never ran", i)
						}
					}
				}
				defer func() {
					r := recover()
					if tc.wantPanic < 0 {
						if r != nil {
							t.Fatalf("unexpected panic %v", r)
						}
						return
					}
					want := fmt.Sprintf("panic %d", tc.wantPanic)
					if r == nil || fmt.Sprint(r) != want {
						t.Fatalf("recovered %v, want %q", r, want)
					}
					checkAllRan()
				}()
				withParallelism(par, func() {
					got, err := Grid(n, func(i int) (int, error) {
						ran[i].Store(true)
						if panicking[i] {
							panic(fmt.Sprintf("panic %d", i))
						}
						if erring[i] {
							return 0, fmt.Errorf("error %d", i)
						}
						return i, nil
					})
					if tc.wantPanic >= 0 {
						t.Fatal("expected a panic, Grid returned")
					}
					checkAllRan()
					switch {
					case tc.wantErr < 0 && err != nil:
						t.Fatalf("err = %v, want nil", err)
					case tc.wantErr >= 0 && (err == nil || err.Error() != fmt.Sprintf("error %d", tc.wantErr)):
						t.Fatalf("err = %v, want error %d", err, tc.wantErr)
					}
					for i, v := range got {
						if !erring[i] && v != i {
							t.Fatalf("healthy cell %d = %d, want %d (failed neighbours must not corrupt it)", i, v, i)
						}
					}
				})
			})
		}
	}
}

// TestGridZeroCells degenerate case.
func TestGridZeroCells(t *testing.T) {
	got, err := Grid(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("Grid(0) = %v, %v; want empty, nil", got, err)
	}
}

// TestGridDeterministicAcrossWorkerCounts runs the same grid at several
// bounds and requires identical result slices.
func TestGridDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(par int) []string {
		var out []string
		withParallelism(par, func() {
			rs, err := Grid(50, func(i int) (string, error) {
				return fmt.Sprintf("r%03d", i), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			out = rs
		})
		return out
	}
	want := run(1)
	for _, par := range []int{2, 5, 32} {
		got := run(par)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallel=%d cell %d = %q, want %q", par, i, got[i], want[i])
			}
		}
	}
}
