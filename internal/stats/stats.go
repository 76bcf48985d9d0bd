// Package stats implements the statistical machinery the paper's analyses
// rely on: empirical CDFs, the two-sample Kolmogorov–Smirnov test (used in
// §4.3 to verify that post-disclosure scanning returns to the baseline
// distribution), Pearson correlation with significance (used throughout §5
// and §6), histograms and streaming moments.
//
// Everything is implemented from scratch on top of the standard library so
// the module stays dependency-free.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrTooFewSamples is returned when a test is given fewer observations than
// it can draw a conclusion from.
var ErrTooFewSamples = errors.New("stats: too few samples")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Median returns the median of xs (by sorting a copy).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-th quantile of xs (0 <= q <= 1) using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return quantileSorted(c, q)
}

// QuantileSorted is Quantile over an already-sorted sample, skipping the
// copy-and-sort — for callers (the query engine's per-group quantile
// aggregates) that sort once and evaluate many quantiles.
func QuantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantileSorted(sorted, q)
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// ECDF is an empirical cumulative distribution function over a fixed sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	c := make([]float64, len(xs))
	copy(c, xs)
	sort.Float64s(c)
	return &ECDF{sorted: c}
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Number of samples <= x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-th quantile of the sample.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return quantileSorted(e.sorted, q)
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// Points returns (x, F(x)) pairs suitable for plotting the CDF as a step
// function, deduplicated on x.
func (e *ECDF) Points() (xs, fs []float64) {
	n := len(e.sorted)
	for i := 0; i < n; {
		j := i
		for j < n && e.sorted[j] == e.sorted[i] {
			j++
		}
		xs = append(xs, e.sorted[i])
		fs = append(fs, float64(j)/float64(n))
		i = j
	}
	return xs, fs
}

// KSResult is the outcome of a two-sample Kolmogorov–Smirnov test.
type KSResult struct {
	// D is the KS statistic: the supremum distance between the two ECDFs.
	D float64
	// P is the asymptotic p-value for the null hypothesis that both samples
	// come from the same distribution.
	P float64
	// N1, N2 are the sample sizes.
	N1, N2 int
}

// SameDistribution reports whether the null hypothesis survives at the given
// significance level alpha (commonly 0.05): true means "no evidence the
// distributions differ".
func (k KSResult) SameDistribution(alpha float64) bool { return k.P > alpha }

// KS2Sample performs the two-sample Kolmogorov–Smirnov test. This is the test
// the paper uses to verify that, weeks after a vulnerability disclosure, the
// port-activity distribution has returned to "normal" (§4.3).
func KS2Sample(a, b []float64) (KSResult, error) {
	if len(a) == 0 || len(b) == 0 {
		return KSResult{}, ErrTooFewSamples
	}
	x := make([]float64, len(a))
	y := make([]float64, len(b))
	copy(x, a)
	copy(y, b)
	sort.Float64s(x)
	sort.Float64s(y)

	var d float64
	i, j := 0, 0
	n1, n2 := float64(len(x)), float64(len(y))
	for i < len(x) && j < len(y) {
		var v float64
		if x[i] <= y[j] {
			v = x[i]
		} else {
			v = y[j]
		}
		for i < len(x) && x[i] <= v {
			i++
		}
		for j < len(y) && y[j] <= v {
			j++
		}
		diff := math.Abs(float64(i)/n1 - float64(j)/n2)
		if diff > d {
			d = diff
		}
	}
	ne := n1 * n2 / (n1 + n2)
	lambda := (math.Sqrt(ne) + 0.12 + 0.11/math.Sqrt(ne)) * d
	return KSResult{D: d, P: ksProb(lambda), N1: len(a), N2: len(b)}, nil
}

// ksProb evaluates the Kolmogorov distribution tail
// Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2).
func ksProb(lambda float64) float64 {
	if lambda <= 0 {
		return 1
	}
	sum := 0.0
	sign := 1.0
	l2 := lambda * lambda
	for k := 1; k <= 100; k++ {
		term := sign * math.Exp(-2*float64(k*k)*l2)
		sum += term
		if math.Abs(term) < 1e-12 {
			break
		}
		sign = -sign
	}
	p := 2 * sum
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// PearsonResult is a correlation coefficient with its significance.
type PearsonResult struct {
	// R is the Pearson product-moment correlation coefficient.
	R float64
	// P is the two-sided p-value from the t distribution with n-2 degrees
	// of freedom under the null hypothesis of zero correlation.
	P float64
	// N is the number of paired observations.
	N int
}

// Pearson computes the Pearson correlation between paired samples x and y.
// The paper reports, e.g., R = 0.88 (p < 0.05) between scan speed and number
// of ports targeted (§5.3) and R = 0.047 between service population and
// scanning intensity (§5.1).
func Pearson(x, y []float64) (PearsonResult, error) {
	if len(x) != len(y) {
		return PearsonResult{}, errors.New("stats: Pearson requires equal-length samples")
	}
	n := len(x)
	if n < 3 {
		return PearsonResult{}, ErrTooFewSamples
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return PearsonResult{R: 0, P: 1, N: n}, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	// t statistic with n-2 df.
	df := float64(n - 2)
	denom := 1 - r*r
	var p float64
	if denom <= 0 {
		p = 0
	} else {
		t := r * math.Sqrt(df/denom)
		p = 2 * studentTTail(math.Abs(t), df)
	}
	return PearsonResult{R: r, P: p, N: n}, nil
}

// studentTTail returns P(T > t) for Student's t with df degrees of freedom,
// via the regularized incomplete beta function.
func studentTTail(t, df float64) float64 {
	if t <= 0 {
		return 0.5
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b) + a*math.Log(x) + b*math.Log(1-x)
	front := math.Exp(lbeta)
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300

	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}
