package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean is the mean of the middle fifth of xs: the values from the 40th
// to the 60th percentile (at least one value; 0 for an empty sample). It
// estimates the median, but where the sample falls into clusters - the
// latencies of a catalog of requests of different sizes - it does not jump
// from one cluster's edge to the next with the noise at those edges: with
// every catalog request sampled equally often, it averages the two middle
// clusters.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo := int(math.Floor(0.4 * float64(len(s))))
	hi := int(math.Ceil(0.6 * float64(len(s))))
	if hi <= lo {
		hi = lo + 1
	}
	return sum(s[lo:hi]) / float64(hi-lo)
}

// tail is the highest reportable percentile of a latency sample.
type tail struct {
	Pct    float64 // the percentile, e.g. 90
	Value  float64 // the sample value at that percentile
	Beyond int     // samples strictly above Value
	N      int     // sample size
}

// tailPercentiles are the candidates tailOf tries, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a percentile before it is
// reported: fewer, and the value is one or two unlucky samples, not a tail.
const minBeyond = 10

// tailOf returns the highest percentile in tailPercentiles with at least
// minBeyond samples strictly beyond it. ok is false when even the median has
// fewer (the sample is too small to have a tail).
func tailOf(xs []float64) (t tail, ok bool) {
	for _, p := range tailPercentiles {
		v := quantile(xs, p/100)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond >= minBeyond {
			return tail{Pct: p, Value: v, Beyond: beyond, N: len(xs)}, true
		}
	}
	return tail{N: len(xs)}, false
}

// geomean is the geometric mean of positive values (0 if there are none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
