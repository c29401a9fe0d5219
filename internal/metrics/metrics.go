// Package metrics provides the evaluation statistics the paper reports:
// absolute percentage error per prediction and its mean over a set (the
// "percentage error" used throughout Section 6).
package metrics

import "math"

// APE returns the absolute percentage error of pred against measured, in
// percent: |pred - measured| / measured * 100.
func APE(pred, measured float64) float64 {
	if measured == 0 {
		if pred == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(pred-measured) / math.Abs(measured) * 100
}

// Mean returns the arithmetic mean (0 for empty input).
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

// Max returns the maximum (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
