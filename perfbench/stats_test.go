package main

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileInterpolates(t *testing.T) {
	d := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {25, 20}, {50, 30}, {90, 46}, {99, 49.6}, {100, 50},
	} {
		if got := percentile(d, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample: got %v", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("no samples: want NaN")
	}
}

// TestPercentileMatchesRank checks the interpolated percentile against the
// order statistics it lies between, on random data.
func TestPercentileMatchesRank(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s samples
	for i := 0; i < 3*sampleChunk+17; i++ {
		s.add(rng.ExpFloat64() * 100)
	}
	d := s.sorted()
	if len(d) != s.len() || !slices.IsSorted(d) {
		t.Fatalf("sorted: %d values, sorted=%v", len(d), slices.IsSorted(d))
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		v := percentile(d, p)
		k := int(float64(len(d)-1) * p / 100)
		if v < d[k] || v > d[k+1] {
			t.Errorf("p%v = %v outside [%v, %v]", p, v, d[k], d[k+1])
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4), so a run's reported spread matches
// one computed from its raw values in Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
		{[]float64{3, 1}, 0.5, 2, 3.5},
	} {
		q1, q2, q3 := quartiles(c.data)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}

func TestCountAtMost(t *testing.T) {
	var s samples
	for _, v := range []float64{1, 5, 150000, 150001, 3e5} {
		s.add(v)
	}
	if got := s.countAtMost(150000); got != 3 {
		t.Errorf("countAtMost = %d, want 3", got)
	}
}
