package cholesky

import (
	"fmt"
	"math"
	"reflect"
	"testing"
)

// analyzeOracle is the first, column-by-column symbolic factorization:
// struct(j) is A's rows below j merged with every child's pattern, each
// pattern its own slice. Analyze must build a deeply equal Sym.
func analyzeOracle(m *Matrix) *Sym {
	n := m.N
	s := &Sym{N: n, ColPtr: make([]int, n+1), Parent: make([]int, n)}
	children := make([][]int, n)
	patterns := make([][]int, n) // struct(j) excluding j, ascending
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		var pat []int
		mark[j] = j
		// A's pattern below the diagonal.
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			if r > j && mark[r] != j {
				mark[r] = j
				pat = append(pat, r)
			}
		}
		// Children's patterns (rows > j).
		for _, c := range children[j] {
			for _, r := range patterns[c] {
				if r > j && mark[r] != j {
					mark[r] = j
					pat = append(pat, r)
				}
			}
		}
		insertionSort(pat)
		patterns[j] = pat
		if len(pat) > 0 {
			s.Parent[j] = pat[0]
			children[pat[0]] = append(children[pat[0]], j)
		} else {
			s.Parent[j] = -1
		}
	}
	// Assemble the compressed pattern (diagonal first).
	for j := 0; j < n; j++ {
		s.ColPtr[j] = len(s.RowIdx)
		s.RowIdx = append(s.RowIdx, j)
		s.RowIdx = append(s.RowIdx, patterns[j]...)
	}
	s.ColPtr[n] = len(s.RowIdx)

	// Supernodes: consecutive columns with struct(j) \ {j+1} == struct(j+1)
	// and parent(j) == j+1.
	s.Snode = make([]int, n)
	s.SnodeStart = []int{0}
	for j := 1; j < n; j++ {
		join := s.Parent[j-1] == j && len(patterns[j-1]) == len(patterns[j])+1
		if join {
			for i, r := range patterns[j] {
				if patterns[j-1][i+1] != r {
					join = false
					break
				}
			}
		}
		if !join {
			s.SnodeStart = append(s.SnodeStart, j)
		}
		s.Snode[j] = len(s.SnodeStart) - 1
	}
	s.SnodeStart = append(s.SnodeStart, n)
	for sn := 0; sn < s.NS(); sn++ {
		for j := s.SnodeStart[sn]; j < s.SnodeStart[sn+1]; j++ {
			s.Snode[j] = sn
		}
	}

	// Targets: the distinct later supernodes each supernode's columns
	// reach, and the dependency counts they imply.
	ns := s.NS()
	s.Targets = make([][]int, ns)
	s.DepCount = make([]int, ns)
	seen := make([]int, ns)
	for i := range seen {
		seen[i] = -1
	}
	for sn := 0; sn < ns; sn++ {
		lo, hi := s.SnodeCols(sn)
		for j := lo; j <= hi; j++ {
			for _, r := range s.ColRows(j)[1:] {
				t := s.Snode[r]
				if t != sn && seen[t] != sn {
					seen[t] = sn
					s.Targets[sn] = append(s.Targets[sn], t)
					s.DepCount[t]++
				}
			}
		}
		insertionSort(s.Targets[sn])
	}
	return s
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// sequentialFactorOracle is the first reference factor: for each column j
// it binary-searches every earlier column for row j. SequentialFactor must
// produce the same bits.
func sequentialFactorOracle(m *Matrix, s *Sym) []float64 {
	val := initialValues(m, s)
	n := s.N
	pos := make([]int, n)
	for j := 0; j < n; j++ {
		for i := 0; i < j; i++ {
			pi := findRow(s, i, j)
			if pi < 0 {
				continue
			}
			ljk := val[pi]
			// Scatter positions of column j.
			for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
				pos[s.RowIdx[p]] = p
			}
			for p := pi; p < s.ColPtr[i+1]; p++ {
				r := s.RowIdx[p]
				val[pos[r]] -= val[p] * ljk
			}
		}
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

// oracleInputs returns every matrix the oracle tests cover: the 1×1
// matrix [4] (GridLaplacian rejects a 1×1 grid) and the k×k Laplacian for
// k = 2..33 in natural and nested-dissection order.
func oracleInputs() []oracleInput {
	in := []oracleInput{{"grid1", &Matrix{N: 1, ColPtr: []int{0, 1}, RowIdx: []int{0}, Val: []float64{4}}}}
	for k := 2; k <= 33; k++ {
		m := GridLaplacian(k)
		in = append(in,
			oracleInput{fmt.Sprintf("grid%d", k), m},
			oracleInput{fmt.Sprintf("grid%d-nd", k), PermuteMatrix(m, NDOrder(k))})
	}
	return in
}

type oracleInput struct {
	name string
	m    *Matrix
}

func TestAnalyzeMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		if got, want := Analyze(in.m), analyzeOracle(in.m); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Analyze differs from the oracle", in.name)
		}
	}
}

func TestSequentialFactorMatchesOracle(t *testing.T) {
	for _, in := range oracleInputs() {
		s := Analyze(in.m)
		got, want := SequentialFactor(in.m, s), sequentialFactorOracle(in.m, s)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: value %d (row %d) = %x, oracle %x", in.name, i, s.RowIdx[i], got[i], want[i])
				break
			}
		}
	}
}
