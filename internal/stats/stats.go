// Package stats provides the small statistical toolkit used by the trace
// analysis and the experiment harness: empirical CDFs, percentiles, RMSE,
// Pearson correlation, and streaming accumulators.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stats: empty input")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs)), nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. xs need not be sorted.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of [0,100]", p)
	}
	return percentileSorted(sortedCopy(xs), p), nil
}

func sortedCopy(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted
}

// percentileSorted is Percentile over non-empty, sorted input.
func percentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the three percentiles the paper reports throughout
// (Figures 4(e), 9(b,c), 18(a)).
type Summary struct {
	P5, Median, P95 float64
}

// Summarize computes the 5th, 50th and 95th percentiles of xs, sorting one
// copy of xs once.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := sortedCopy(xs)
	return Summary{
		P5:     percentileSorted(sorted, 5),
		Median: percentileSorted(sorted, 50),
		P95:    percentileSorted(sorted, 95),
	}, nil
}

// RMSE returns the root mean square error between two equal-length series.
func RMSE(a, b []float64) (float64, error) {
	if len(a) == 0 {
		return 0, ErrEmpty
	}
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(a), len(b))
	}
	var sum float64
	for i := range a {
		d := a[i] - b[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a))), nil
}

// Pearson returns the Pearson correlation coefficient between x and y.
// It is an error if either series has zero variance.
func Pearson(x, y []float64) (float64, error) {
	if len(x) == 0 {
		return 0, ErrEmpty
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	mx, _ := Mean(x)
	my, _ := Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx := x[i] - mx
		dy := y[i] - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: zero variance")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// KendallTau returns Kendall's rank correlation coefficient between two
// equal-length rankings (tau-a: concordant minus discordant pairs over all
// pairs). The tree-existence analysis uses it to quantify day-over-day rank
// stability: a static distribution tree would keep tau near 1; the paper's
// churn corresponds to tau near 0.
func KendallTau(x, y []float64) (float64, error) {
	if len(x) < 2 {
		return 0, fmt.Errorf("stats: need at least 2 points, got %d", len(x))
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("stats: length mismatch %d vs %d", len(x), len(y))
	}
	var concordant, discordant int
	for i := 0; i < len(x); i++ {
		for j := i + 1; j < len(x); j++ {
			dx := x[i] - x[j]
			dy := y[i] - y[j]
			switch {
			case dx*dy > 0:
				concordant++
			case dx*dy < 0:
				discordant++
			}
		}
	}
	pairs := len(x) * (len(x) - 1) / 2
	return float64(concordant-discordant) / float64(pairs), nil
}

// Accumulator collects running count/sum/min/max without storing samples.
// The zero value is ready to use.
type Accumulator struct {
	n        int
	sum      float64
	min, max float64
}

// Add records one sample.
func (a *Accumulator) Add(x float64) {
	if a.n == 0 || x < a.min {
		a.min = x
	}
	if a.n == 0 || x > a.max {
		a.max = x
	}
	a.n++
	a.sum += x
}

// N returns the number of samples recorded.
func (a *Accumulator) N() int { return a.n }

// Sum returns the total of all samples.
func (a *Accumulator) Sum() float64 { return a.sum }

// Mean returns the sample mean, or 0 if no samples were recorded.
func (a *Accumulator) Mean() float64 {
	if a.n == 0 {
		return 0
	}
	return a.sum / float64(a.n)
}

// Min returns the smallest sample, or 0 if none.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest sample, or 0 if none.
func (a *Accumulator) Max() float64 { return a.max }
