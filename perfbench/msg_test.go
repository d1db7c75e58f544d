package main

import "testing"

func TestMessageRoundTrip(t *testing.T) {
	g := newMsgGen(5, flowBulk, 1200)
	buf := make([]byte, 1200)
	for seq := uint64(0); seq < 200; seq++ {
		m := g.fill(buf, seq, int64(seq)*1000)
		p, ok := verify(m, 1200)
		if !ok || p.seq != seq || p.sendNs != int64(seq)*1000 || p.flow != flowBulk {
			t.Fatalf("seq %d: got %+v ok=%v", seq, p, ok)
		}
	}
}

func TestVerifyCatchesDamage(t *testing.T) {
	g := newMsgGen(5, flowVoIP, 200)
	m := g.fill(make([]byte, 200), 9, 42)
	for _, i := range []int{0, 8, 16, 20, 24, 199} {
		bad := append([]byte(nil), m...)
		bad[i] ^= 0x40
		if _, ok := verify(bad, 200); ok {
			t.Errorf("flipped byte %d not detected", i)
		}
	}
	if _, ok := verify(m[:199], 200); ok {
		t.Error("truncated message accepted")
	}
}

func TestFlowCheckLedger(t *testing.T) {
	g := newMsgGen(1, flowRPC, 64)
	var f flowCheck
	deliver := func(seq uint64, sent int64) bool {
		p, ok := verify(g.fill(make([]byte, 64), seq, 0), 64)
		return f.deliver(p, ok, 64, sent)
	}
	for _, seq := range []uint64{3, 0, 200, 1} {
		if !deliver(seq, 300) {
			t.Fatalf("seq %d rejected", seq)
		}
	}
	if deliver(200, 300) {
		t.Error("duplicate accepted")
	}
	if deliver(300, 300) {
		t.Error("never-sent seq accepted")
	}
	f.deliver(parsed{}, false, 64, 300) // a corrupt message
	if f.unique.Load() != 4 || f.dups.Load() != 1 || f.corrupt.Load() != 2 || f.bytes.Load() != 4*64 {
		t.Errorf("ledger: unique %d dups %d corrupt %d bytes %d", f.unique.Load(), f.dups.Load(), f.corrupt.Load(), f.bytes.Load())
	}
	// 300 sent, 4 delivered: 296 missing, plus one duplicate and two corrupt.
	if got := f.failures(300); got != 296+1+2 {
		t.Errorf("failures = %d", got)
	}
}
