package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); !almost(m, 5, 1e-12) {
		t.Fatalf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty edge case")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almost(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Quantile(nil, 0.5) != 0 {
		t.Fatal("empty quantile")
	}
	if Quantile([]float64{7}, 0.3) != 7 {
		t.Fatal("singleton quantile")
	}
	// Quantile must not mutate its input.
	in := []float64{3, 1, 2}
	Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("Median = %v", m)
	}
	if m := Median([]float64{1, 2, 3, 4}); !almost(m, 2.5, 1e-12) {
		t.Fatalf("Median = %v", m)
	}
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {1.5, 0.25}, {2, 0.75}, {3, 1}, {10, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); !almost(got, c.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	if e.Len() != 4 {
		t.Fatal("Len")
	}
	xs, fs := e.Points()
	if len(xs) != 3 || xs[1] != 2 || !almost(fs[1], 0.75, 1e-12) {
		t.Fatalf("Points = %v %v", xs, fs)
	}
	if q := e.Quantile(0.5); !almost(q, 2, 1e-12) {
		t.Fatalf("ECDF quantile = %v", q)
	}
}

func TestECDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		e := NewECDF(raw)
		prev := -1.0
		for _, x := range []float64{-1e9, -1, 0, 1, 1e9} {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKSSameDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	res, err := KS2Sample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !res.SameDistribution(0.05) {
		t.Fatalf("identical distributions rejected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSDifferentDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 1.0 // shifted
	}
	res, err := KS2Sample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.SameDistribution(0.05) {
		t.Fatalf("shifted distribution not detected: D=%v p=%v", res.D, res.P)
	}
	if res.D < 0.3 {
		t.Fatalf("D = %v, expected large separation", res.D)
	}
}

func TestKSStatisticExact(t *testing.T) {
	// a entirely below b: D must be 1.
	res, err := KS2Sample([]float64{1, 2, 3}, []float64{10, 11, 12})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.D, 1, 1e-12) {
		t.Fatalf("D = %v, want 1", res.D)
	}
	if res.P > 0.1 {
		t.Fatalf("P = %v, want small", res.P)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KS2Sample(nil, []float64{1}); err == nil {
		t.Fatal("expected error for empty sample")
	}
}

func TestKSProbBounds(t *testing.T) {
	if p := ksProb(0); p != 1 {
		t.Fatalf("ksProb(0) = %v", p)
	}
	if p := ksProb(10); p > 1e-10 {
		t.Fatalf("ksProb(10) = %v", p)
	}
	prev := 1.0
	for l := 0.1; l < 3; l += 0.1 {
		p := ksProb(l)
		if p < 0 || p > 1 || p > prev+1e-9 {
			t.Fatalf("ksProb not monotone in [0,1]: l=%v p=%v prev=%v", l, p, prev)
		}
		prev = p
	}
}

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6}
	y := []float64{2, 4, 6, 8, 10, 12}
	res, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.R, 1, 1e-9) {
		t.Fatalf("R = %v, want 1", res.R)
	}
	if res.P > 1e-6 {
		t.Fatalf("P = %v, want ~0", res.P)
	}
}

func TestPearsonNegative(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{10, 8, 6, 4, 2}
	res, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.R, -1, 1e-9) {
		t.Fatalf("R = %v, want -1", res.R)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n := 5000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		y[i] = r.NormFloat64()
	}
	res, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.R) > 0.05 {
		t.Fatalf("R = %v for independent samples", res.R)
	}
	if res.P < 0.01 {
		t.Fatalf("P = %v, should not be significant", res.P)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	// Hand-computed example: r for these five pairs is 0.9058...
	x := []float64{43, 21, 25, 42, 57, 59}
	y := []float64{99, 65, 79, 75, 87, 81}
	res, err := Pearson(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.R, 0.5298, 0.001) {
		t.Fatalf("R = %v, want ~0.5298", res.R)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("length mismatch should error")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1, 2}); err != ErrTooFewSamples {
		t.Fatal("n<3 should return ErrTooFewSamples")
	}
	// Constant input: R defined as 0.
	res, err := Pearson([]float64{1, 1, 1, 1}, []float64{1, 2, 3, 4})
	if err != nil || res.R != 0 || res.P != 1 {
		t.Fatalf("constant input: %+v, %v", res, err)
	}
}

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got := regIncBeta(1, 1, x); !almost(got, x, 1e-9) {
			t.Fatalf("I_%v(1,1) = %v", x, got)
		}
	}
	// I_x(2,2) = 3x^2 - 2x^3.
	x := 0.3
	want := 3*x*x - 2*x*x*x
	if got := regIncBeta(2, 2, x); !almost(got, want, 1e-9) {
		t.Fatalf("I_0.3(2,2) = %v, want %v", got, want)
	}
}

func TestStudentTTail(t *testing.T) {
	// For df -> large, t=1.96 should give ~0.025.
	if got := studentTTail(1.96, 10000); !almost(got, 0.025, 0.001) {
		t.Fatalf("tail(1.96, 1e4) = %v", got)
	}
	if got := studentTTail(0, 5); !almost(got, 0.5, 1e-12) {
		t.Fatalf("tail(0) = %v", got)
	}
}
