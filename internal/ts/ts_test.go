package ts

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestValidate(t *testing.T) {
	tests := []struct {
		name    string
		s       Series
		wantErr bool
	}{
		{"empty", Series{}, true},
		{"ok", Series{1, 2, 3}, false},
		{"nan", Series{1, math.NaN(), 3}, true},
		{"posinf", Series{1, math.Inf(1)}, true},
		{"neginf", Series{math.Inf(-1)}, true},
		{"single", Series{42}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.s.Validate(); (err != nil) != tt.wantErr {
				t.Fatalf("Validate() = %v, wantErr=%v", err, tt.wantErr)
			}
		})
	}
}

func TestClone(t *testing.T) {
	s := Series{1, 2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 1 {
		t.Fatal("Clone did not copy")
	}
}

func TestEuclidean(t *testing.T) {
	a := Series{0, 0, 0}
	b := Series{3, 4, 0}
	d, err := Euclidean(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, 5, 1e-12) {
		t.Fatalf("Euclidean = %v, want 5", d)
	}
	if _, err := Euclidean(a, Series{1}); err != ErrLengthMismatch {
		t.Fatalf("want ErrLengthMismatch, got %v", err)
	}
}

// TestEuclideanSqWithin checks early abandoning: a sum that completes is
// bit-identical to EuclideanSq's, and an abandoned one stops only above the
// limit, below a full sum that is above it too.
func TestEuclideanSqWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(300)
		a, b := make(Series, n), make(Series, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64()*10, rng.NormFloat64()*10
		}
		full := EuclideanSq(a, b)
		for _, limit := range []float64{math.Inf(1), full, full * rng.Float64()} {
			sum, done := EuclideanSqWithin(a, b, limit)
			if done {
				if limit < full {
					t.Fatalf("n=%d: completed below the limit %v < full %v", n, limit, full)
				}
				if math.Float64bits(sum) != math.Float64bits(full) {
					t.Fatalf("n=%d: completed sum %v, EuclideanSq %v", n, sum, full)
				}
				continue
			}
			if sum <= limit || sum > full || full <= limit {
				t.Fatalf("n=%d limit %v: abandoned at %v with full sum %v", n, limit, sum, full)
			}
		}
	}
}

func TestEuclideanSqPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	EuclideanSq(Series{1}, Series{1, 2})
}

func TestMaxDeviationAndSumAbs(t *testing.T) {
	c := Series{1, 2, 3, 4}
	r := Series{1, 0, 3, 7}
	if got := MaxDeviation(c, r); got != 3 {
		t.Fatalf("MaxDeviation = %v, want 3", got)
	}
	if got := SumAbsDeviation(c, r); got != 5 {
		t.Fatalf("SumAbsDeviation = %v, want 5", got)
	}
}

func TestStats(t *testing.T) {
	s := Series{2, 4, 4, 4, 5, 5, 7, 9}
	if got := s.Mean(); !almostEq(got, 5, 1e-12) {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := s.Std(); !almostEq(got, 2, 1e-12) {
		t.Fatalf("Std = %v, want 2", got)
	}
	lo, hi := s.MinMax()
	if lo != 2 || hi != 9 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestStatsEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Std() != 0 {
		t.Fatal("empty stats should be 0")
	}
	lo, hi := s.MinMax()
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax should be 0,0")
	}
}

func TestZNormalize(t *testing.T) {
	s := Series{1, 2, 3, 4, 5}
	z := s.ZNormalize()
	if !almostEq(z.Mean(), 0, 1e-12) {
		t.Fatalf("mean after znorm = %v", z.Mean())
	}
	if !almostEq(z.Std(), 1, 1e-12) {
		t.Fatalf("std after znorm = %v", z.Std())
	}
}

func TestZNormalizeConstant(t *testing.T) {
	s := Series{7, 7, 7}
	z := s.ZNormalize()
	for _, v := range z {
		if v != 0 {
			t.Fatalf("constant series should normalise to zeros, got %v", z)
		}
	}
}

func TestPrefixWindow(t *testing.T) {
	s := Series{3, 1, 4, 1, 5, 9, 2, 6}
	p := NewPrefix(s)
	if p.Len() != len(s) {
		t.Fatalf("Len = %d", p.Len())
	}
	for lo := 0; lo < len(s); lo++ {
		for hi := lo + 1; hi <= len(s); hi++ {
			l, s0, s1, s2 := p.Window(lo, hi)
			var w0, w1, w2 float64
			for t2 := lo; t2 < hi; t2++ {
				w0 += s[t2]
				w1 += float64(t2-lo) * s[t2]
				w2 += s[t2] * s[t2]
			}
			if l != hi-lo || !almostEq(s0, w0, 1e-12) || !almostEq(s1, w1, 1e-12) || !almostEq(s2, w2, 1e-12) {
				t.Fatalf("window [%d,%d): got %d,%v,%v,%v want %v,%v,%v", lo, hi, l, s0, s1, s2, w0, w1, w2)
			}
		}
	}
}

func TestPrefixWindowPanics(t *testing.T) {
	p := NewPrefix(Series{1, 2, 3})
	for _, c := range [][2]int{{-1, 2}, {0, 4}, {2, 2}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("window %v should panic", c)
				}
			}()
			p.Window(c[0], c[1])
		}()
	}
}

func TestPrefixSum(t *testing.T) {
	s := Series{1, 2, 3, 4}
	p := NewPrefix(s)
	if got := p.Sum(1, 3); got != 5 {
		t.Fatalf("Sum(1,3) = %v, want 5", got)
	}
	if got := p.Sum(0, 4); got != 10 {
		t.Fatalf("Sum(0,4) = %v, want 10", got)
	}
}

// Property: Euclidean distance satisfies the triangle inequality and
// symmetry on random series.
func TestEuclideanProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		a, b, c := make(Series, n), make(Series, n), make(Series, n)
		for i := 0; i < n; i++ {
			a[i], b[i], c[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		}
		dab, _ := Euclidean(a, b)
		dba, _ := Euclidean(b, a)
		dac, _ := Euclidean(a, c)
		dcb, _ := Euclidean(c, b)
		return almostEq(dab, dba, 1e-12) && dab <= dac+dcb+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: z-normalisation is idempotent up to numerical tolerance.
func TestZNormalizeIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(64)
		s := make(Series, n)
		for i := range s {
			s[i] = rng.NormFloat64()*10 + 5
		}
		z := s.ZNormalize()
		zz := z.ZNormalize()
		for i := range z {
			if !almostEq(z[i], zz[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
