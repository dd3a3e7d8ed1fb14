package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1}, 2},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) -> [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		// statistics.quantiles([1,2], n=4) -> [0.75, 1.5, 2.25]
		{[]float64{1, 2}, 0.75, 2.25},
		// statistics.quantiles([1,2,3], n=4) -> [1.0, 2.0, 3.0]
		{[]float64{1, 2, 3}, 1, 3},
		// statistics.quantiles([2,4,4,5,7,9,10], n=4) -> [4.0, 5.0, 9.0]
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 4, 9},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}
