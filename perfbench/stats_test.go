package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: tailOf must not depend on order
	}
	return xs
}

func TestTailOfPicksHighestPercentileWithTenBeyond(t *testing.T) {
	cases := []struct {
		n      int
		ok     bool
		pct    float64
		beyond int
	}{
		{n: 1, ok: false},
		{n: 19, ok: false}, // the median of 19 has only 9 samples above it
		{n: 20, ok: true, pct: 50, beyond: 10},
		{n: 48, ok: true, pct: 75, beyond: 12},
		{n: 100, ok: true, pct: 90, beyond: 10},
		{n: 1000, ok: true, pct: 99, beyond: 10},
	}
	for _, c := range cases {
		tl, ok := tailOf(seq(c.n))
		if ok != c.ok {
			t.Fatalf("n=%d: ok=%v, want %v", c.n, ok, c.ok)
		}
		if tl.N != c.n {
			t.Errorf("n=%d: reported sample count %d", c.n, tl.N)
		}
		if !ok {
			continue
		}
		if tl.Pct != c.pct || tl.Beyond != c.beyond {
			t.Errorf("n=%d: got p%g with %d beyond, want p%g with %d", c.n, tl.Pct, tl.Beyond, c.pct, c.beyond)
		}
		if tl.Beyond < minBeyond {
			t.Errorf("n=%d: only %d samples beyond the reported percentile", c.n, tl.Beyond)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 0); got != 1 {
		t.Errorf("min = %g, want 1", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}

func TestMidMean(t *testing.T) {
	if got := midMean(nil); got != 0 {
		t.Errorf("empty sample: %g, want 0", got)
	}
	if got := midMean([]float64{3, 1, 2}); got != 2 {
		t.Errorf("three samples: %g, want the median 2", got)
	}
	// Ten requests of ten sizes, each sampled five times, with noise at
	// the cluster edges: the estimate is the mean of the fifth and sixth
	// clusters whatever the edge samples read.
	var xs []float64
	for c := 1; c <= 10; c++ {
		for i := 0; i < 5; i++ {
			xs = append(xs, float64(100*c))
		}
	}
	if got := midMean(xs); got != 550 {
		t.Errorf("clustered sample: %g, want 550", got)
	}
	xs[24] = 590 // one slow sample of the fifth cluster moves the plain median by 45
	if got, med := midMean(xs), median(xs); math.Abs(got-550) > 10 || math.Abs(med-550) < 40 {
		t.Errorf("edge noise: mid-mean %g (want ~550), median %g", got, med)
	}
}
