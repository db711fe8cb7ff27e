package cholesky

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a sparse symmetric positive definite matrix in
// lower-triangular compressed-column form (diagonal first in each column).
type Matrix struct {
	N      int
	ColPtr []int // length N+1
	RowIdx []int // ascending within a column; RowIdx[ColPtr[j]] == j
	Val    []float64
}

// GridLaplacian builds the k×k 5-point grid Laplacian with Dirichlet
// boundary (diag 4, grid-neighbor off-diagonals −1): a sparse SPD matrix of
// the same character as the paper's 1086-column test matrix (k=33 gives
// n=1089). Only the lower triangle is stored.
func GridLaplacian(k int) *Matrix {
	if k < 2 {
		panic(fmt.Sprintf("cholesky: grid %d too small", k))
	}
	n := k * k
	m := &Matrix{N: n, ColPtr: make([]int, n+1)}
	at := func(r, c int) int { return r*k + c }
	for j := 0; j < n; j++ {
		m.ColPtr[j] = len(m.RowIdx)
		r, c := j/k, j%k
		m.RowIdx = append(m.RowIdx, j)
		m.Val = append(m.Val, 4)
		// Lower-triangle neighbors (larger linear index): right and down.
		if c+1 < k {
			m.RowIdx = append(m.RowIdx, at(r, c+1))
			m.Val = append(m.Val, -1)
		}
		if r+1 < k {
			m.RowIdx = append(m.RowIdx, at(r+1, c))
			m.Val = append(m.Val, -1)
		}
	}
	m.ColPtr[n] = len(m.RowIdx)
	return m
}

// Sym is the symbolic factorization: the factor's pattern, the elimination
// tree, the supernode partition, and the supernodal task dependencies.
type Sym struct {
	N      int
	ColPtr []int // factor column pointers, length N+1
	RowIdx []int // factor row indices, ascending, diagonal first
	Parent []int // elimination tree (-1 at roots)

	Snode      []int   // column -> supernode id
	SnodeStart []int   // supernode id -> first column; length NS+1
	Targets    [][]int // supernode -> distinct later supernodes it updates
	DepCount   []int   // supernode -> number of distinct source supernodes
}

// NS returns the number of supernodes.
func (s *Sym) NS() int { return len(s.SnodeStart) - 1 }

// NNZ returns the factor's stored nonzeros.
func (s *Sym) NNZ() int { return len(s.RowIdx) }

// ColRows returns column j's factor row indices (ascending, j first).
func (s *Sym) ColRows(j int) []int { return s.RowIdx[s.ColPtr[j]:s.ColPtr[j+1]] }

// SnodeCols returns the [first, last] column range of supernode sn.
func (s *Sym) SnodeCols(sn int) (lo, hi int) { return s.SnodeStart[sn], s.SnodeStart[sn+1] - 1 }

// Analyze computes the symbolic factorization of m. It sizes every slice
// of the Sym once: a first pass over the rows finds the elimination tree
// and each column's count, and a second writes the row indices in place.
// Row i of the factor is the union of the elimination-tree paths from each
// k < i with A(i,k) ≠ 0 up to i (George and Liu), so each pass costs
// O(nnz(L)) and needs only A's rows, an n-entry mark and one cursor per
// column. Row i's own diagonal stops its walk at once.
func Analyze(m *Matrix) *Sym {
	n := m.N
	s := &Sym{N: n, ColPtr: make([]int, n+1), Parent: make([]int, n)}
	rows := newRowIndex(n, m.ColPtr, m.RowIdx)
	mark, next := make([]int, n), make([]int, n)
	for i := range n {
		s.Parent[i], mark[i] = -1, -1
	}
	// The tree and the counts: next[k] counts column k's rows below k. The
	// first row to reach a root of the tree so far is its parent.
	for i := range n {
		mark[i] = i
		for _, e := range rows.row(i) {
			for k := e.col; mark[k] != i; k = s.Parent[k] {
				mark[k] = i
				next[k]++
				if s.Parent[k] == -1 {
					s.Parent[k] = i
				}
			}
		}
	}
	for j := range n {
		s.ColPtr[j+1] = s.ColPtr[j] + 1 + next[j]
	}
	// The pattern, diagonal first: rows arrive in ascending order, so each
	// column's cursor writes them sorted.
	s.RowIdx = make([]int, s.ColPtr[n])
	for j := range n {
		s.RowIdx[s.ColPtr[j]] = j
		next[j], mark[j] = s.ColPtr[j]+1, -1
	}
	for i := range n {
		mark[i] = i
		for _, e := range rows.row(i) {
			for k := e.col; mark[k] != i; k = s.Parent[k] {
				mark[k] = i
				s.RowIdx[next[k]] = i
				next[k]++
			}
		}
	}
	s.findSupernodes()
	s.findTargets()
	return s
}

// findSupernodes merges consecutive columns with nested structure:
// struct(j) \ {j+1} == struct(j+1) and parent(j) == j+1. Column j-1's rows
// after its diagonal are then exactly column j's rows.
func (s *Sym) findSupernodes() {
	n := s.N
	s.Snode = make([]int, n)
	ns := 1
	for j := 1; j < n; j++ {
		if !slices.Equal(s.ColRows(j - 1)[1:], s.ColRows(j)) {
			ns++
		}
		s.Snode[j] = ns - 1
	}
	s.SnodeStart = make([]int, ns+1)
	for j := 1; j < n; j++ {
		if s.Snode[j] != s.Snode[j-1] {
			s.SnodeStart[s.Snode[j]] = j
		}
	}
	s.SnodeStart[ns] = n
}

// findTargets computes, per supernode, the distinct later supernodes whose
// columns it updates, and each supernode's dependency count. The lists
// share one backing array, sized by a counting pass; a supernode without
// targets keeps a nil list.
func (s *Sym) findTargets() {
	ns := s.NS()
	total, buf := 0, []int(nil)
	for sn := range ns {
		buf = s.appendTargets(buf[:0], sn)
		total += len(buf)
	}
	s.Targets, s.DepCount = make([][]int, ns), make([]int, ns)
	all := make([]int, 0, total)
	for sn := range ns {
		from := len(all)
		if all = s.appendTargets(all, sn); len(all) > from {
			s.Targets[sn] = all[from:len(all):len(all)]
		}
	}
	for _, t := range all {
		s.DepCount[t]++
	}
}

// appendTargets appends to dst the distinct later supernodes that sn
// updates. A supernode's columns share their rows below it, so these are
// the supernodes of its last column's rows below the diagonal: ascending,
// and equal ones adjacent.
func (s *Sym) appendTargets(dst []int, sn int) []int {
	_, hi := s.SnodeCols(sn)
	prev := sn
	for _, r := range s.ColRows(hi)[1:] {
		if t := s.Snode[r]; t != prev {
			dst, prev = append(dst, t), t
		}
	}
	return dst
}

// SequentialFactor computes the numeric factor on plain slices (left-looking
// column Cholesky over the symbolic pattern) — the reference the parallel
// run is compared against. Column j takes its updates from the columns
// whose structure holds row j, in ascending order, read off the factor's
// row index.
func SequentialFactor(m *Matrix, s *Sym) []float64 {
	val := initialValues(m, s)
	n := s.N
	rows := newRowIndex(n, s.ColPtr, s.RowIdx)
	pos := make([]int, n)
	for j := 0; j < n; j++ {
		// Scatter positions of column j.
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			pos[s.RowIdx[p]] = p
		}
		row := rows.row(j)
		for _, e := range row[:len(row)-1] {
			ljk := val[e.pos]
			for p := e.pos; p < s.ColPtr[e.col+1]; p++ {
				val[pos[s.RowIdx[p]]] -= val[p] * ljk
			}
		}
		// cdiv.
		d := val[s.ColPtr[j]]
		if d <= 0 {
			panic(fmt.Sprintf("cholesky: matrix not positive definite at column %d (pivot %g)", j, d))
		}
		d = math.Sqrt(d)
		val[s.ColPtr[j]] = d
		for p := s.ColPtr[j] + 1; p < s.ColPtr[j+1]; p++ {
			val[p] /= d
		}
	}
	return val
}

// rowIndex lists the entries of an n×n lower-triangular pattern in
// compressed-column form (A's or the factor's) by row, each row in
// ascending column order, so its diagonal comes last.
type rowIndex struct {
	start []int      // row r's entries are ents[start[r]:start[r+1]]
	ents  []rowEntry // entry (r, col) sits at value index pos
}

type rowEntry struct{ col, pos int }

func newRowIndex(n int, colPtr, rowIdx []int) rowIndex {
	x := rowIndex{start: make([]int, n+1)}
	for _, r := range rowIdx[:colPtr[n]] {
		x.start[r+1]++
	}
	for r := range n {
		x.start[r+1] += x.start[r]
	}
	x.ents = make([]rowEntry, colPtr[n])
	next := slices.Clone(x.start[:n])
	for j := range n {
		for p := colPtr[j]; p < colPtr[j+1]; p++ {
			r := rowIdx[p]
			x.ents[next[r]] = rowEntry{col: j, pos: p}
			next[r]++
		}
	}
	return x
}

func (x rowIndex) row(r int) []rowEntry { return x.ents[x.start[r]:x.start[r+1]] }

// initialValues spreads A's numeric values over the factor pattern
// (fill positions start at zero).
func initialValues(m *Matrix, s *Sym) []float64 {
	val := make([]float64, s.NNZ())
	for j := 0; j < m.N; j++ {
		p := s.ColPtr[j]
		for q := m.ColPtr[j]; q < m.ColPtr[j+1]; q++ {
			r := m.RowIdx[q]
			for s.RowIdx[p] != r {
				p++
			}
			val[p] = m.Val[q]
		}
	}
	return val
}

// findRow returns the value index of row r in column i's factor pattern, or
// -1 when absent.
func findRow(s *Sym, i, r int) int {
	lo, hi := s.ColPtr[i], s.ColPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case s.RowIdx[mid] == r:
			return mid
		case s.RowIdx[mid] < r:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// seek returns the value index of row r in column c, searching forward
// from value index t, or -1 when column c holds no row r at or after t.
func (s *Sym) seek(c, t, r int) int {
	for end := s.ColPtr[c+1]; t < end && s.RowIdx[t] <= r; t++ {
		if s.RowIdx[t] == r {
			return t
		}
	}
	return -1
}
