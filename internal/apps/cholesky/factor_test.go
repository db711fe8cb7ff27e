package cholesky

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// Hand-computed factorization of the 2x2 grid Laplacian:
//
//	A = [ 4 -1 -1  0
//	     -1  4  0 -1
//	     -1  0  4 -1
//	      0 -1 -1  4 ]
//
// L computed by hand (lower-triangular Cholesky).
func TestSequentialFactorHandChecked(t *testing.T) {
	m := GridLaplacian(2)
	s := Analyze(m)
	val := SequentialFactor(m, s)

	get := func(r, c int) float64 {
		p := findRow(s, c, r)
		if p < 0 {
			return 0
		}
		return val[p]
	}

	l00 := 2.0 // sqrt(4)
	if !close(get(0, 0), l00) {
		t.Fatalf("L00 = %g, want %g", get(0, 0), l00)
	}
	l10 := -0.5 // -1/2
	if !close(get(1, 0), l10) {
		t.Fatalf("L10 = %g, want %g", get(1, 0), l10)
	}
	l11 := math.Sqrt(4 - 0.25) // sqrt(3.75)
	if !close(get(1, 1), l11) {
		t.Fatalf("L11 = %g, want %g", get(1, 1), l11)
	}
	l20 := -0.5
	if !close(get(2, 0), l20) {
		t.Fatalf("L20 = %g, want %g", get(2, 0), l20)
	}
	// L21 = (A21 - L20*L10)/L11 = (0 - 0.25)/sqrt(3.75)
	l21 := -0.25 / l11
	if !close(get(2, 1), l21) {
		t.Fatalf("L21 = %g, want %g", get(2, 1), l21)
	}
	l22 := math.Sqrt(4 - l20*l20 - l21*l21)
	if !close(get(2, 2), l22) {
		t.Fatalf("L22 = %g, want %g", get(2, 2), l22)
	}
	// L31 = (A31 - 0)/L11 ; A31 = -1.
	l31 := -1 / l11
	if !close(get(3, 1), l31) {
		t.Fatalf("L31 = %g, want %g", get(3, 1), l31)
	}
	l32 := (-1 - l21*l31) / l22
	if !close(get(3, 2), l32) {
		t.Fatalf("L32 = %g, want %g", get(3, 2), l32)
	}
	l33 := math.Sqrt(4 - l31*l31 - l32*l32)
	if !close(get(3, 3), l33) {
		t.Fatalf("L33 = %g, want %g", get(3, 3), l33)
	}
}

func close(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

// The 2x2 grid fills in completely below the diagonal of column 1 (the
// (2,1) entry is a fill position: A21 = 0 but L21 != 0).
func TestFillPositionsAppear(t *testing.T) {
	m := GridLaplacian(2)
	s := Analyze(m)
	if findRow(s, 1, 2) < 0 {
		t.Fatal("fill entry (2,1) missing from the symbolic factor")
	}
	// And it was zero in A.
	for p := m.ColPtr[1]; p < m.ColPtr[2]; p++ {
		if m.RowIdx[p] == 2 {
			t.Fatal("(2,1) should not be an original entry")
		}
	}
}

// Non-positive-definite input must be rejected loudly.
func TestFactorRejectsIndefinite(t *testing.T) {
	m := GridLaplacian(2)
	m.Val[0] = -4 // break SPD
	s := Analyze(m)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for an indefinite matrix")
		}
	}()
	SequentialFactor(m, s)
}

// A factor with one value off by one part in a million fails the check:
// each diagonal in turn, at the 8×8 grid. The dense check agrees.
func TestCheckFactorRejectsPerturbedValue(t *testing.T) {
	m := GridLaplacian(8)
	s := Analyze(m)
	val := SequentialFactor(m, s)
	if err := CheckFactor(m, s, val); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < s.N; j++ {
		p := s.ColPtr[j]
		v := val[p]
		val[p] *= 1 + 1e-6
		err, dense := CheckFactor(m, s, val), checkFactorDense(m, s, val)
		val[p] = v
		if err == nil || dense == nil {
			t.Fatalf("L(%d,%d) off by 1e-6 relative: check %v, dense check %v", j, j, err, dense)
		}
	}
}

// A pattern missing one entry fails the check, which names the entry: a
// fill entry through the product that lands on it, an entry of A through
// A itself.
func TestCheckFactorRejectsMissingEntry(t *testing.T) {
	m := GridLaplacian(5)
	s := Analyze(m)
	val := SequentialFactor(m, s)
	fills := 0
	for j := 0; j < s.N; j++ {
		for p := s.ColPtr[j] + 1; p < s.ColPtr[j+1]; p++ {
			r := s.RowIdx[p]
			want := fmt.Sprintf("L·Lᵀ(%d,%d) lies outside", r, j)
			if slices.Contains(m.RowIdx[m.ColPtr[j]:m.ColPtr[j+1]], r) {
				want = fmt.Sprintf("A(%d,%d) lies outside", r, j)
			} else {
				fills++
			}
			s2, val2 := withoutEntry(s, val, p)
			if err := CheckFactor(m, s2, val2); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("pattern without (%d,%d): got %v, want %q", r, j, err, want)
			}
		}
	}
	if fills == 0 {
		t.Fatal("the 5×5 grid's factor has no fill entry")
	}
}

// withoutEntry returns s and val with value index p removed.
func withoutEntry(s *Sym, val []float64, p int) (*Sym, []float64) {
	t := *s
	t.RowIdx = slices.Delete(slices.Clone(s.RowIdx), p, p+1)
	t.ColPtr = slices.Clone(s.ColPtr)
	for j := range t.ColPtr {
		if t.ColPtr[j] > p {
			t.ColPtr[j]--
		}
	}
	return &t, slices.Delete(slices.Clone(val), p, p+1)
}

// Verify's host-side work takes memory linear in the factor: the check
// and the reference factor each allocate fewer than 64 bytes per factor
// nonzero at paper scale, where a dense n×n residual alone takes 264.
func TestVerifyMemoryLinear(t *testing.T) {
	m := GridLaplacian(Paper().Grid)
	s := Analyze(m)
	val := SequentialFactor(m, s)
	if err := CheckFactor(m, s, val); err != nil {
		t.Fatal(err)
	}
	limit := int64(64 * s.NNZ())
	for _, c := range []struct {
		name string
		f    func()
	}{
		{"CheckFactor", func() { _ = CheckFactor(m, s, val) }},
		{"SequentialFactor", func() { SequentialFactor(m, s) }},
	} {
		r := testing.Benchmark(func(b *testing.B) {
			for range b.N {
				c.f()
			}
		})
		if got := r.AllocedBytesPerOp(); got >= limit {
			t.Errorf("%s allocates %d bytes per call, want fewer than %d (64 per nonzero)", c.name, got, limit)
		}
	}
}

// checkFactorDense is the first L·Lᵀ == A check, on a dense n×n copy of A.
func checkFactorDense(m *Matrix, s *Sym, val []float64) error {
	n := s.N
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			r := m.RowIdx[p]
			a[r*n+j] = m.Val[p]
			a[j*n+r] = m.Val[p]
		}
	}
	for j := 0; j < n; j++ {
		for p := s.ColPtr[j]; p < s.ColPtr[j+1]; p++ {
			for q := s.ColPtr[j]; q < s.ColPtr[j+1]; q++ {
				r1, r2 := s.RowIdx[p], s.RowIdx[q]
				a[r1*n+r2] -= val[p] * val[q]
			}
		}
	}
	var norm float64
	for _, v := range a {
		norm += v * v
	}
	norm = math.Sqrt(norm)
	if norm > 1e-8*float64(n) {
		return fmt.Errorf("cholesky: ||L·Lᵀ − A|| = %g too large", norm)
	}
	return nil
}

// BenchmarkAnalyze is the paper-scale symbolic factorization each
// Cholesky instance runs once.
func BenchmarkAnalyze(b *testing.B) {
	m := GridLaplacian(Paper().Grid)
	b.ReportAllocs()
	for range b.N {
		Analyze(m)
	}
}

// BenchmarkVerify is Verify's host-side work at paper scale: the reference
// factor and the L·Lᵀ == A check.
func BenchmarkVerify(b *testing.B) {
	m := GridLaplacian(Paper().Grid)
	s := Analyze(m)
	b.ReportAllocs()
	for range b.N {
		if err := CheckFactor(m, s, SequentialFactor(m, s)); err != nil {
			b.Fatal(err)
		}
	}
}
