package main

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
)

// Every benchmark message starts with a 24-byte header:
//
//	[0:8)   sequence number within its flow
//	[8:16)  send (or due) time, ns on the run's monotonic clock
//	[16:20) CRC-32C over the payload, then bytes [0:16) and [20:24)
//	[20:24) flow id
//
// followed by a seeded pseudo-random body. The receiver recomputes the
// CRC, so a corrupted, truncated or misrouted message is caught in O(size)
// and a duplicate in O(1) by the flow's sequence bitmap.
const hdrLen = 24

// Flow ids. An echo reuses the seq and send time of the message it
// answers, so its round trip can be timed.
const (
	flowRPC  uint32 = 1
	flowBulk uint32 = 2
	flowVoIP uint32 = 3
	flowEcho uint32 = 4
)

// echoLen is the size of an echo: big enough that its datagram is never
// mistaken for an ACK-only one by the loss injector.
const echoLen = 64

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyVariants distinct bodies per flow keep the sender's work per message
// to a copy and a 20-byte CRC update.
const bodyVariants = 64

// msgGen builds the messages of one flow.
type msgGen struct {
	flow uint32
	size int
	pool []byte
	crcs [bodyVariants]uint32
}

// bodyStride is the offset between consecutive bodies in a flow's pool.
const bodyStride = 13

func newMsgGen(seed int64, flow uint32, size int) *msgGen {
	if size < hdrLen {
		panic("perfbench: message smaller than its header")
	}
	g := &msgGen{flow: flow, size: size}
	rng := rand.New(rand.NewSource(seed*7919 + int64(flow)))
	body := size - hdrLen
	g.pool = make([]byte, body+bodyVariants*bodyStride)
	rng.Read(g.pool)
	for k := range g.crcs {
		g.crcs[k] = crc32.Checksum(g.body(k), castagnoli)
	}
	return g
}

func (g *msgGen) body(k int) []byte {
	off := k * bodyStride
	return g.pool[off : off+g.size-hdrLen]
}

// fill writes message seq into dst (len(dst) >= g.size) and returns it.
func (g *msgGen) fill(dst []byte, seq uint64, sendNs int64) []byte {
	m := dst[:g.size]
	k := int(seq % bodyVariants)
	copy(m[hdrLen:], g.body(k))
	binary.LittleEndian.PutUint64(m[0:8], seq)
	binary.LittleEndian.PutUint64(m[8:16], uint64(sendNs))
	binary.LittleEndian.PutUint32(m[20:24], g.flow)
	binary.LittleEndian.PutUint32(m[16:20], headerCRC(g.crcs[k], m))
	return m
}

func headerCRC(bodyCRC uint32, m []byte) uint32 {
	c := crc32.Update(bodyCRC, castagnoli, m[0:16])
	return crc32.Update(c, castagnoli, m[20:24])
}

// parsed is a verified message header.
type parsed struct {
	flow   uint32
	seq    uint64
	sendNs int64
}

// flowOf reads a message's flow id without verifying it.
func flowOf(msg []byte) uint32 {
	if len(msg) < hdrLen {
		return 0
	}
	return binary.LittleEndian.Uint32(msg[20:24])
}

// verify checks msg's length and checksum and returns its header.
func verify(msg []byte, wantLen int) (parsed, bool) {
	if len(msg) != wantLen || len(msg) < hdrLen {
		return parsed{}, false
	}
	want := binary.LittleEndian.Uint32(msg[16:20])
	if headerCRC(crc32.Checksum(msg[hdrLen:], castagnoli), msg) != want {
		return parsed{}, false
	}
	return parsed{
		flow:   binary.LittleEndian.Uint32(msg[20:24]),
		seq:    binary.LittleEndian.Uint64(msg[0:8]),
		sendNs: int64(binary.LittleEndian.Uint64(msg[8:16])),
	}, true
}

// flowCheck is the receive-side ledger of one flow. seen is a growing
// bitmap written only by the receiving connection's loop; the counters
// are atomics so the harness can poll them from its own goroutine.
type flowCheck struct {
	seen    []uint64
	unique  atomic.Int64 // distinct valid messages delivered
	bytes   atomic.Int64 // payload bytes of those messages
	dups    atomic.Int64
	corrupt atomic.Int64
}

// deliver records one received message and reports whether it was new.
// A sequence number the sender never used counts as corrupt.
func (f *flowCheck) deliver(p parsed, ok bool, size int, sent int64) bool {
	if !ok || int64(p.seq) >= sent {
		f.corrupt.Add(1)
		return false
	}
	w := int(p.seq >> 6)
	for w >= len(f.seen) {
		f.seen = append(f.seen, 0)
	}
	bit := uint64(1) << (p.seq & 63)
	if f.seen[w]&bit != 0 {
		f.dups.Add(1)
		return false
	}
	f.seen[w] |= bit
	f.bytes.Add(int64(size))
	f.unique.Add(1)
	return true
}

// failures counts messages of a flow that were sent but not delivered
// intact exactly once.
func (f *flowCheck) failures(sent int64) int64 {
	return (sent - f.unique.Load()) + f.dups.Load() + f.corrupt.Load()
}
