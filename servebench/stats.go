package main

import (
	"math"
	"sort"
)

// quantile is the q-th sample quantile of xs with linear interpolation
// between order statistics; xs is sorted in place. NaN when empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func p50(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }
func p99(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.99) }

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// orZero maps NaN (an empty sample) to 0 for the result line.
func orZero(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// chunkP99 splits latencies, in the order they were scheduled, into
// consecutive chunks of at least 250 and returns the median of the
// chunks' p99s (the plain p99 below 500 samples). A stall moves the
// tail of one chunk, not the result, which keeps the tail comparable
// between runs on a shared machine.
func chunkP99(lat []float64) float64 {
	k := max(len(lat)/250, 1)
	var p99s []float64
	for i := 0; i < k; i++ {
		p99s = append(p99s, p99(lat[i*len(lat)/k:(i+1)*len(lat)/k]))
	}
	return p50(p99s)
}
