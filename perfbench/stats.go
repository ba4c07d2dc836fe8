package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, the same definition as numpy's
// default. It does not modify xs. An empty sample yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentileSorted(s, p)
}

// percentileSorted is percentile over an already ascending sample.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[len(s)-1]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// midMean is the interquartile mean: the mean of xs without its lowest and
// highest quarter (n/4 values at each end, rounded down). It stays close to
// the bulk of the sample when up to a quarter of the values at either end
// are outliers, and unlike the median it is not one value of a coarse
// sample. It does not modify xs. An empty sample yields 0.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := len(s) / 4
	sum := 0.0
	for _, x := range s[cut : len(s)-cut] {
		sum += x
	}
	return sum / float64(len(s)-2*cut)
}

// quartiles returns the first and third quartile of xs exactly as Python's
// statistics.quantiles(xs, n=4) (method "exclusive") computes them, which is
// how run-to-run spread is judged. Fewer than two values yield the value
// itself for both.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0]
	}
	// Rank i*(n+1)/4, with the integer part clamped to 1..n-1 and the
	// remainder left unclamped, so the ends extrapolate like Python does.
	ld, m := len(s), len(s)+1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// relativeSpread is the interquartile distance as a share of the median,
// the steadiness figure the benchmark's bounds are judged against.
func relativeSpread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// geomean returns the geometric mean of positive values; non-positive
// values are skipped. An empty sample yields 0.
func geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}
