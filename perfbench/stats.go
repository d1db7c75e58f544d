package main

import (
	"math"
	"slices"
)

// samples is an append-only set of float64 observations kept in fixed
// chunks, so recording one is O(1) and never copies earlier samples.
// A samples value has a single writer; readers look only after the
// writer has published its last add (see session drain).
type samples struct {
	chunks [][]float32
	n      int
}

const sampleChunk = 1 << 16

// maxSamples bounds a set's memory (16 MiB). A one-second bulk session
// records about half a million; only a traced run's single long session
// reaches the bound, and its latency samples feed no reported metric.
const maxSamples = 1 << 22

func (s *samples) add(v float64) {
	if s.n >= maxSamples {
		return
	}
	if s.n%sampleChunk == 0 {
		s.chunks = append(s.chunks, make([]float32, 0, sampleChunk))
	}
	c := &s.chunks[len(s.chunks)-1]
	*c = append(*c, float32(v))
	s.n++
}

func (s *samples) len() int { return s.n }

// sorted returns a sorted copy of every sample.
func (s *samples) sorted() []float64 {
	out := make([]float64, 0, s.n)
	for _, c := range s.chunks {
		for _, v := range c {
			out = append(out, float64(v))
		}
	}
	slices.Sort(out)
	return out
}

// countAtMost returns how many samples are <= limit.
func (s *samples) countAtMost(limit float64) int {
	k := 0
	for _, c := range s.chunks {
		for _, v := range c {
			if float64(v) <= limit {
				k++
			}
		}
	}
	return k
}

// percentile returns the p-th percentile (0..100) of sorted data by
// linear interpolation between the two nearest ranks, the common
// "type 7" definition. It returns NaN for no data.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return sorted[0]
	}
	h := (float64(n) - 1) * p / 100
	lo := int(math.Floor(h))
	if lo >= n-1 {
		return sorted[n-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// quartiles returns the three cut points of data in four groups, with the
// same method as Python's statistics.quantiles(data, n=4) (the
// "exclusive" method), so a run's reported spread matches the one a
// reader computes from its raw values. It needs at least two values;
// with one, all three are that value.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := slices.Clone(data)
	slices.Sort(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of data (the mean of the two middle
// values for an even count).
func median(data []float64) float64 {
	d := slices.Clone(data)
	slices.Sort(d)
	n := len(d)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}
