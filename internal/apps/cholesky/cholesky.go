// Package cholesky implements the sparse supernodal Cholesky factorization
// of the paper's evaluation: sets of columns with identical structure form
// supernodes; a supernode whose external updates have all arrived is added
// to a central work queue; processors take supernode tasks from the queue,
// factor them, and apply their updates to later supernodes — a totally
// dynamic, data-dependent communication pattern driven by the queue.
//
// The paper factors a 1086×1086 sparse SPD matrix; this reproduction
// generates a grid Laplacian of the same scale (33×33 ⇒ n=1089) with a
// comparable supernode count (see DESIGN.md §3 on input substitution).
package cholesky

import (
	"fmt"
	"math"

	"zsim/internal/apps"
	"zsim/internal/machine"
	"zsim/internal/psync"
	"zsim/internal/shm"
)

// Config sizes the problem.
type Config struct {
	Grid int // the matrix is the Grid×Grid Laplacian (n = Grid²)
	// Ordering selects the elimination order: "natural" (row-major band,
	// default) or "nd" (nested dissection — less fill, wider elimination
	// tree, more task parallelism).
	Ordering string
}

// Paper returns the paper-scale instance: n=1089 ≈ the paper's 1086.
func Paper() Config { return Config{Grid: 33} }

// Small returns a reduced instance for fast tests.
func Small() Config { return Config{Grid: 8} }

// CH is one Cholesky run.
type CH struct {
	cfg Config
	m   *Matrix
	sym *Sym

	val shm.F64 // factor nonzeros
	dep shm.I64 // per-supernode outstanding-update count

	snLocks []*psync.Lock
	queue   *psync.Queue
	done    *psync.Counter
	initBar *psync.Barrier
}

// New returns a Cholesky application instance.
func New(cfg Config) *CH {
	m := GridLaplacian(cfg.Grid)
	switch cfg.Ordering {
	case "", "natural":
	case "nd":
		m = PermuteMatrix(m, NDOrder(cfg.Grid))
	default:
		panic(fmt.Sprintf("cholesky: unknown ordering %q", cfg.Ordering))
	}
	return &CH{cfg: cfg, m: m, sym: Analyze(m)}
}

// Matrix exposes the (possibly permuted) input matrix.
func (c *CH) Matrix() *Matrix { return c.m }

// Name implements apps.App.
func (c *CH) Name() string { return "cholesky" }

// Sym exposes the symbolic factorization (tests, examples).
func (c *CH) Sym() *Sym { return c.sym }

// Setup implements apps.App.
func (c *CH) Setup(m *machine.Machine) {
	c.val = shm.NewF64(m.Heap, c.sym.NNZ())
	c.dep = shm.NewI64(m.Heap, c.sym.NS())
	c.snLocks = make([]*psync.Lock, c.sym.NS())
	for i := range c.snLocks {
		c.snLocks[i] = psync.NewLock(m)
	}
	c.queue = psync.NewQueue(m, c.sym.NS()+16)
	c.done = psync.NewCounter(m, 0)
	c.initBar = psync.NewBarrier(m)

	for i, v := range initialValues(c.m, c.sym) {
		m.PokeF64(c.val.At(i), v)
	}
	for sn, d := range c.sym.DepCount {
		m.PokeU64(c.dep.At(sn), uint64(d))
	}
}

// Body implements apps.App.
func (c *CH) Body(e *machine.Env) {
	// Processor 0 seeds the central queue with the leaves (supernodes with
	// no outstanding updates).
	if e.ID() == 0 {
		for sn := 0; sn < c.sym.NS(); sn++ {
			if c.dep.Get(e, sn) == 0 {
				c.queue.Push(e, int64(sn))
			}
			e.Compute(apps.CostLoop + apps.CostCheck)
		}
	}
	c.initBar.Wait(e)

	for {
		sn, ok := c.queue.TryPop(e)
		if !ok {
			if c.done.Get(e) == int64(c.sym.NS()) {
				return
			}
			e.Compute(apps.CostIdle)
			continue
		}
		c.factorSnode(e, int(sn))
		c.fanOut(e, int(sn))
		c.done.Add(e, 1)
	}
}

// factorSnode runs the internal factorization of supernode sn: left-looking
// updates between its columns (which have nested structure, so source and
// target positions align), then cdiv per column.
func (c *CH) factorSnode(e *machine.Env, sn int) {
	s := c.sym
	lo, hi := s.SnodeCols(sn)
	for j := lo; j <= hi; j++ {
		// Internal updates from columns lo..j-1.
		for i := lo; i < j; i++ {
			pos := s.ColPtr[i] + (j - i) // row j inside column i (nested)
			lij := c.val.Get(e, pos)
			for p := pos; p < s.ColPtr[i+1]; p++ {
				q := s.ColPtr[j] + (p - pos)
				c.val.Set(e, q, c.val.Get(e, q)-c.val.Get(e, p)*lij)
				e.Compute(apps.CostLoop + 2*apps.CostFlop)
			}
		}
		// cdiv(j).
		dp := s.ColPtr[j]
		d := c.val.Get(e, dp)
		if d <= 0 {
			panic(fmt.Sprintf("cholesky: lost positive definiteness at column %d (pivot %g)", j, d))
		}
		d = math.Sqrt(d)
		c.val.Set(e, dp, d)
		e.Compute(apps.CostSqrt)
		for p := dp + 1; p < s.ColPtr[j+1]; p++ {
			c.val.Set(e, p, c.val.Get(e, p)/d)
			e.Compute(apps.CostLoop + apps.CostDiv)
		}
	}
}

// fanOut applies sn's updates to each target supernode under the target's
// lock, decrementing its dependency count and enqueueing it when it becomes
// ready (the paper's "if the criteria of the supernode being changed are
// satisfied then that node is also added to the work queue").
func (c *CH) fanOut(e *machine.Env, sn int) {
	s := c.sym
	lo, hi := s.SnodeCols(sn)
	for _, t := range s.Targets[sn] {
		c.snLocks[t].Acquire(e)
		tlo, thi := s.SnodeCols(t)
		for j := lo; j <= hi; j++ {
			// Positions of rows belonging to supernode t in column j.
			for pk := s.ColPtr[j] + 1; pk < s.ColPtr[j+1]; pk++ {
				k := s.RowIdx[pk]
				if k < tlo {
					continue
				}
				if k > thi {
					break
				}
				// cmod(k, j): L[r][k] -= L[r][j] * L[k][j] for r ≥ k in
				// struct(j) (all such r are in struct(k) by the fill rule).
				lkj := c.val.Get(e, pk)
				for p := pk; p < s.ColPtr[j+1]; p++ {
					r := s.RowIdx[p]
					q := findRow(s, k, r)
					c.val.Set(e, q, c.val.Get(e, q)-c.val.Get(e, p)*lkj)
					e.Compute(apps.CostLoop + 2*apps.CostFlop + 4*apps.CostCheck)
				}
			}
		}
		left := c.dep.Add(e, t, -1)
		if left == 0 {
			c.queue.Push(e, int64(t))
		}
		c.snLocks[t].Release(e)
	}
}

// Verify implements apps.App: the parallel factor must match the sequential
// reference and satisfy L·Lᵀ = A.
func (c *CH) Verify(m *machine.Machine) error {
	s := c.sym
	got := make([]float64, s.NNZ())
	for i := range got {
		got[i] = m.PeekF64(c.val.At(i))
	}
	want := SequentialFactor(c.m, s)
	for i := range got {
		if !approxEq(got[i], want[i]) {
			return fmt.Errorf("cholesky: L value %d (row %d) = %g, reference %g", i, s.RowIdx[i], got[i], want[i])
		}
	}
	return CheckFactor(c.m, s, got)
}

// CheckFactor verifies L·Lᵀ == A. It forms the residual R = A − L·Lᵀ on
// L's lower pattern only, one value per factor nonzero, column by column
// as SequentialFactor builds L: column c of R takes A's column c less
// L(r,k)·L(c,k) for each column k ≤ c that holds row c, in ascending k as
// the dense product would. An exact symbolic factorization keeps every
// such (r, c) inside the pattern, so R is exactly zero elsewhere; a
// product or an entry of A outside the pattern is an error. Each
// off-diagonal entry of R counts twice, so the norm is the Frobenius norm
// over all n² positions.
func CheckFactor(m *Matrix, s *Sym, val []float64) error {
	n := s.N
	rows := newRowIndex(n, s.ColPtr, s.RowIdx)
	res := make([]float64, s.NNZ())
	pos := make([]int, n) // value index of row r in column c; below ColPtr[c] when absent
	for r := range pos {
		pos[r] = -1
	}
	var norm float64
	for c := 0; c < n; c++ {
		lo := s.ColPtr[c]
		for p := lo; p < s.ColPtr[c+1]; p++ {
			pos[s.RowIdx[p]] = p
		}
		for p := m.ColPtr[c]; p < m.ColPtr[c+1]; p++ {
			r := m.RowIdx[p]
			if pos[r] < lo {
				return fmt.Errorf("cholesky: A(%d,%d) lies outside the factor's pattern", r, c)
			}
			res[pos[r]] = m.Val[p]
		}
		for _, e := range rows.row(c) {
			lck := val[e.pos]
			for p := e.pos; p < s.ColPtr[e.col+1]; p++ {
				r := s.RowIdx[p]
				if pos[r] < lo {
					return fmt.Errorf("cholesky: L·Lᵀ(%d,%d) lies outside the factor's pattern", r, c)
				}
				res[pos[r]] -= val[p] * lck
			}
		}
		norm += res[lo] * res[lo]
		for p := lo + 1; p < s.ColPtr[c+1]; p++ {
			norm += 2 * res[p] * res[p]
		}
	}
	norm = math.Sqrt(norm)
	if norm > 1e-8*float64(n) {
		return fmt.Errorf("cholesky: ||L·Lᵀ − A|| = %g too large", norm)
	}
	return nil
}

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-9+1e-9*math.Max(math.Abs(a), math.Abs(b))
}
