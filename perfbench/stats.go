package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks (at 50, Python's
// statistics.median); NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so these figures match a check made with it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// summary describes the samples behind one reported value.
type summary struct {
	Samples int     `json:"samples"`
	Median  float64 `json:"median"`
	Q1      float64 `json:"q1"`
	Q3      float64 `json:"q3"`
	// Percentile is set on tail metrics: the percentile reported, with
	// BeyondSamples the number of samples above it.
	Percentile    float64 `json:"percentile,omitempty"`
	BeyondSamples float64 `json:"beyond_samples,omitempty"`
}

func summarize(xs []float64) summary {
	q1, _, q3 := quartiles(xs)
	return summary{Samples: len(xs), Median: percentile(xs, 50), Q1: q1, Q3: q3}
}
