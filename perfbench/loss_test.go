package main

import (
	"math"
	"testing"
)

// drops records the fate of n datagrams of one size.
func drops(li *lossInjector, size, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = li.drop(size)
	}
	return out
}

func TestLossIsSeeded(t *testing.T) {
	a := drops(newLossInjector(7, 0.03), 1024, 5000)
	b := drops(newLossInjector(7, 0.03), 1024, 5000)
	c := drops(newLossInjector(8, 0.03), 1024, 5000)
	same, diff := true, false
	for i := range a {
		same = same && a[i] == b[i]
		diff = diff || a[i] != c[i]
	}
	if !same {
		t.Error("same seed gave different loss patterns")
	}
	if !diff {
		t.Error("different seeds gave the same loss pattern")
	}
}

// TestLossFlowsAreIndependent checks that one flow's loss pattern does not
// depend on how much traffic the other flow sends between its datagrams.
func TestLossFlowsAreIndependent(t *testing.T) {
	const voip, bulk = 227, 1027
	quiet := newLossInjector(3, 0.03)
	busy := newLossInjector(3, 0.03)
	for i := 0; i < 2000; i++ {
		q := quiet.drop(voip)
		for k := 0; k < i%7; k++ {
			busy.drop(bulk)
		}
		if b := busy.drop(voip); b != q {
			t.Fatalf("voip datagram %d: fate depends on bulk traffic", i)
		}
	}
}

func TestLossSparesACKsAndEchoes(t *testing.T) {
	li := newLossInjector(1, 1) // drop every datagram that may be dropped
	for _, n := range []int{0, 24, ackOnlyMax, 90, cleanMax} {
		if li.drop(n) {
			t.Errorf("%d B datagram dropped", n)
		}
	}
	for _, n := range []int{cleanMax + 1, 227, 1027, 1424} {
		if !li.drop(n) {
			t.Errorf("%d B datagram passed at loss 1", n)
		}
	}
	if li.class(227).name != "voip" || li.class(1027).name != "bulk" || li.class(1424).name != "bulk" {
		t.Error("size classes misassigned")
	}
}

func TestLossRate(t *testing.T) {
	li := newLossInjector(11, 0.03)
	const n = 200000
	k := 0
	for _, d := range drops(li, 1027, n) {
		if d {
			k++
		}
	}
	// Binomial(n, 0.03): five standard deviations is about 0.19%.
	if rate := float64(k) / n; math.Abs(rate-0.03) > 0.002 {
		t.Errorf("loss rate %.4f, want 0.03", rate)
	}
}

func TestLossRecordsSizes(t *testing.T) {
	li := newLossInjector(1, 0)
	li.drop(500)
	li.record.Store(true)
	li.drop(40) // ACK-only: not a data datagram
	li.drop(600)
	li.drop(1100)
	if got := li.recordedSizes(); len(got) != 2 || got[0] != 600 || got[1] != 1100 {
		t.Errorf("recorded %v, want [600 1100]", got)
	}
}
