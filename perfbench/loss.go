package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
)

// lossInjector drops outgoing UDP datagrams with a fixed probability,
// through the wire layer's fault seam. The seam reports only a datagram's
// size, so flows are told apart by size class, and each class draws from
// its own seeded stream: one flow's traffic volume never shifts another
// flow's loss pattern. ACK-only datagrams (a 24-byte uTCP header plus at
// most three 16-byte SACK blocks) always pass, and so do the VoIP
// receiver's 64 B echoes: the return path is clean, so a round trip
// measures the forward flow's loss recovery plus one clean trip back.
//
// Size is a proxy for the flow. A VoIP segment that coalesces several
// messages after a stall is as large as a bulk one and draws from the
// bulk stream; the split is exact for single-message segments.
type lossInjector struct {
	prob    float64
	classes []lossClass

	// sizes, when non-nil, records every data datagram's size (the
	// traced run replays them through the packet codec).
	sizesMu sync.Mutex
	sizes   []int
	record  atomic.Bool
}

type lossClass struct {
	name   string
	maxLen int // inclusive upper size bound of the class

	mu  sync.Mutex // the hook runs on every sending loop
	rng *rand.Rand
}

// maxRecorded bounds the sizes kept for the codec replay.
const maxRecorded = 1 << 15

// ackOnlyMax is the largest datagram that can carry no payload.
const ackOnlyMax = 24 + 3*16

// cleanMax is the largest datagram that always passes: ACK-only ones and
// echoes (64 B plus framing, header and SACK blocks).
const cleanMax = 159

// Size classes of the lossy workload's data datagrams: 200 B VoIP
// messages and 1000 B bulk messages, each plus the uCOBS framing and the
// uTCP header.
var lossySizeClasses = []struct {
	name   string
	maxLen int
}{
	{"voip", 799},
	{"bulk", 1 << 30},
}

func newLossInjector(seed int64, prob float64) *lossInjector {
	li := &lossInjector{prob: prob, classes: make([]lossClass, len(lossySizeClasses))}
	for i, c := range lossySizeClasses {
		li.classes[i].name = c.name
		li.classes[i].maxLen = c.maxLen
		li.classes[i].rng = rand.New(rand.NewSource(seed*1000003 + int64(i+1)))
	}
	return li
}

// class returns the stream a datagram of size n draws from, or nil for a
// datagram that always passes.
func (li *lossInjector) class(n int) *lossClass {
	if n <= cleanMax {
		return nil
	}
	for i := range li.classes {
		if n <= li.classes[i].maxLen {
			return &li.classes[i]
		}
	}
	return &li.classes[len(li.classes)-1]
}

// drop decides the fate of one datagram of size n.
func (li *lossInjector) drop(n int) bool {
	c := li.class(n)
	if c == nil {
		return false
	}
	if li.record.Load() {
		li.sizesMu.Lock()
		if len(li.sizes) < maxRecorded {
			li.sizes = append(li.sizes, n)
		}
		li.sizesMu.Unlock()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() < li.prob
}

// writeHook adapts drop to wire.FaultHooks.Write: an injected error on a
// datagram socket discards that datagram, as a lossy path would.
func (li *lossInjector) writeHook(size int) (int, error) {
	if li.drop(size) {
		return 0, syscall.ECONNREFUSED
	}
	return 0, nil
}

// recordedSizes returns the data-datagram sizes seen while recording.
func (li *lossInjector) recordedSizes() []int {
	li.sizesMu.Lock()
	defer li.sizesMu.Unlock()
	return append([]int(nil), li.sizes...)
}
