package main

import (
	"math"
	"sort"
)

// summary describes one set of samples the way every report row does:
// count, median and the quartiles around it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
}

// quantile returns the q-quantile of an ascending slice by linear
// interpolation between the two nearest ranks.
func quantile(sorted []float64, q float64) float64 {
	switch len(sorted) {
	case 0:
		return math.NaN()
	case 1:
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy leaves the caller's samples in arrival order.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func summarize(xs []float64) summary {
	s := sortedCopy(xs)
	return summary{N: len(s), Median: quantile(s, 0.5), P25: quantile(s, 0.25), P75: quantile(s, 0.75)}
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return math.Abs((s.P75 - s.P25) / s.Median)
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
