package main

import (
	"math"
	"slices"
	"time"

	"minion/internal/tcp"
	"minion/internal/utcp"
)

// layerInputs is what the traced half of a run measured.
type layerInputs struct {
	s             *session
	b             *phase // the traced half
	ticksA        []tick // the untraced half, for the tracing overhead
	before, after layerSnap
	goroutines    int
	profile       *cpuProfile
	tls           bool // the workload runs a TLS handshake
	setup         *setupLog
}

// span2 returns the first and last tick of a phase's ticks.
func span2(t []tick) (tick, tick) { return t[0], t[len(t)-1] }

func cpuPerMsg(t []tick) float64 {
	a, b := span2(t)
	return float64((b.user+b.sys)-(a.user+a.sys)) / 1e3 / float64(b.msgs-a.msgs)
}

func exchPerS(t []tick) float64 {
	a, b := span2(t)
	return float64(b.exch-a.exch) / (float64(b.t-a.t) / 1e9)
}

func goodputMBs(t []tick) float64 {
	a, b := span2(t)
	return float64(b.good-a.good) / 1e6 / (float64(b.t-a.t) / 1e9)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// perLayer reports every per-layer metric. A layer the workload does not
// use reports 0.
func (r *result) perLayer(in layerInputs) {
	a, b := in.before.tk, in.after.tk
	msgs := float64(b.msgs - a.msgs)
	secs := float64(b.t-a.t) / 1e9

	// minion: the benchmark's own calls into the public API.
	sendUs := in.s.tr.sendCallUs()
	slices.Sort(sendUs)
	r.add("minion.send_call_us_p50", "us", percentile(sendUs, 50), len(sendUs))
	r.add("minion.send_call_us_p99", "us", percentile(sendUs, 99), len(sendUs))
	r.add("minion.listen_ms", "ms", in.setup.medianMs("listen"), setups)
	r.add("minion.dial_ms", "ms", in.setup.medianMs("dial"), setups)
	r.add("minion.trysend_stalls", "count", float64(r.stalls), 1)
	handshakeMs := 0.0
	if in.tls {
		handshakeMs = in.setup.medianMs("handshake")
	}
	r.add("tlshake.handshake_ms", "ms", handshakeMs, setups)

	// Per-connection layer counters, summed over the run's endpoints.
	var d struct {
		ucobsSent, ucobsDeliv, ucobsEnc, ucobsDec int64
		ucobsCPUEnc, ucobsCPUDec                  time.Duration
		utlsSent, utlsDeliv                       int64
		utlsSeal, utlsOpen                        time.Duration
		segsSent, segsRetrans, acks               int64
		timeouts, fastRec, ooo                    int64
		pktsOut, malformed                        int64
		hasUTLS, hasBind                          bool
	}
	d.hasBind = len(in.after.conns) > 0
	for i, x := range in.after.conns {
		y := in.before.conns[i]
		if x.hasUCOBS {
			d.ucobsSent += int64(x.ucobs.MessagesSent - y.ucobs.MessagesSent)
			d.ucobsDeliv += int64(x.ucobs.MessagesDelivered - y.ucobs.MessagesDelivered)
			d.ucobsEnc += x.ucobs.BytesEncoded - y.ucobs.BytesEncoded
			d.ucobsDec += x.ucobs.BytesDecoded - y.ucobs.BytesDecoded
			d.ucobsCPUEnc += x.ucobs.CPUEncode - y.ucobs.CPUEncode
			d.ucobsCPUDec += x.ucobs.CPUDecode - y.ucobs.CPUDecode
		}
		if x.hasUTLS {
			d.hasUTLS = true
			d.utlsSent += int64(x.utls.MessagesSent - y.utls.MessagesSent)
			d.utlsDeliv += int64(x.utls.MessagesDelivered - y.utls.MessagesDelivered)
			d.utlsSeal += x.utls.CPUSeal - y.utls.CPUSeal
			d.utlsOpen += x.utls.CPUOpen - y.utls.CPUOpen
		}
		if x.hasTCP {
			d.segsSent += int64(x.tcp.SegsSent - y.tcp.SegsSent)
			d.segsRetrans += int64(x.tcp.SegsRetrans - y.tcp.SegsRetrans)
			d.acks += int64(x.tcp.AcksSent - y.tcp.AcksSent)
			d.timeouts += int64(x.tcp.Timeouts - y.tcp.Timeouts)
			d.fastRec += int64(x.tcp.FastRecoveries - y.tcp.FastRecoveries)
			d.ooo += int64(x.tcp.DeliveredOOO - y.tcp.DeliveredOOO)
		}
		d.hasBind = d.hasBind && x.hasBind
		d.pktsOut += x.bind.PacketsOut - y.bind.PacketsOut
		d.malformed += x.bind.Malformed - y.bind.Malformed
	}
	us := func(t time.Duration) float64 { return float64(t) / 1e3 }
	n := int(msgs)

	recordsPerMsg := 0.0
	if d.hasUTLS {
		recordsPerMsg = ratio(float64(d.utlsSent), float64(b.sent-a.sent))
	}
	r.add("utls.seal_us_per_msg", "us", ratio(us(d.utlsSeal), float64(d.utlsSent)), int(d.utlsSent))
	r.add("utls.open_us_per_msg", "us", ratio(us(d.utlsOpen), float64(d.utlsDeliv)), int(d.utlsDeliv))
	r.add("utls.records_per_msg", "count", recordsPerMsg, int(d.utlsSent))

	r.add("ucobs.encode_us_per_msg", "us", ratio(us(d.ucobsCPUEnc), float64(d.ucobsSent)), int(d.ucobsSent))
	r.add("ucobs.decode_us_per_msg", "us", ratio(us(d.ucobsCPUDec), float64(d.ucobsDeliv)), int(d.ucobsDeliv))
	r.add("ucobs.wire_bytes_ratio", "ratio", ratio(float64(d.ucobsEnc), float64(d.ucobsDec)), int(d.ucobsDeliv))

	// SegsSent counts pure ACKs too; the ratios are per data segment.
	dataSegs := float64(d.segsSent - d.acks)
	r.add("tcp.retrans_ratio", "ratio", ratio(float64(d.segsRetrans), dataSegs), int(dataSegs))
	r.add("tcp.rto_count", "count", float64(d.timeouts), 1)
	r.add("tcp.fast_recoveries", "count", float64(d.fastRec), 1)
	r.add("tcp.ooo_ratio", "ratio", ratio(float64(d.ooo), dataSegs), int(dataSegs))
	r.add("tcp.msgs_per_seg", "count", ratio(float64(d.ucobsSent), dataSegs), int(dataSegs))
	r.add("tcp.acks_per_seg", "count", ratio(float64(d.acks), dataSegs), int(dataSegs))

	io := func(f func(x layerSnap) uint64) float64 { return float64(f(in.after) - f(in.before)) }
	udpDgrams := io(func(x layerSnap) uint64 { return x.io.UDPSendDatagrams })
	pkts, malformed := float64(d.pktsOut), float64(d.malformed)
	switch {
	case d.segsSent == 0:
		pkts, malformed = 0, 0 // no uTCP connection in this workload
	case !d.hasBind:
		// The binding is out of reach: count datagrams at the socket and
		// flag the malformed count as unavailable.
		pkts, malformed = udpDgrams, -1
		r.notes = append(r.notes, "utcp binding counters unavailable: utcp.malformed = -1")
	}
	r.add("utcp.pkts_per_msg", "count", ratio(pkts, msgs), n)
	r.add("utcp.malformed", "count", malformed, 1)
	var sizes []int
	if in.s.loss != nil {
		sizes = in.s.loss.recordedSizes()
	}
	r.add("utcp.codec_ns_per_pkt", "ns", codecNsPerPkt(sizes), len(sizes))

	tcpCalls := io(func(x layerSnap) uint64 { return x.io.TCPWriteCalls })
	r.add("wire.write_calls_per_msg", "count", ratio(tcpCalls, msgs), n)
	r.add("wire.bufs_per_write", "count", ratio(io(func(x layerSnap) uint64 { return x.io.TCPWriteBufs }), tcpCalls), int(tcpCalls))
	r.add("wire.read_calls_per_msg", "count", ratio(io(func(x layerSnap) uint64 { return x.io.TCPReadCalls }), msgs), n)
	r.add("wire.poll_wakeups_per_msg", "count", ratio(io(func(x layerSnap) uint64 { return x.io.PollWakeups }), msgs), n)
	r.add("wire.udp_send_calls_per_dgram", "count", ratio(io(func(x layerSnap) uint64 { return x.io.UDPSendCalls }), udpDgrams), int(udpDgrams))
	recvDgrams := io(func(x layerSnap) uint64 { return x.io.UDPRecvDatagrams })
	r.add("wire.udp_recv_calls_per_dgram", "count", ratio(io(func(x layerSnap) uint64 { return x.io.UDPRecvCalls }), recvDgrams), int(recvDgrams))

	r.add("kernel.sys_us_per_msg", "us", float64(b.sys-a.sys)/1e3/msgs, n)

	gets := float64(in.after.pool.Gets - in.before.pool.Gets)
	r.add("buf.pool_hit_ratio", "ratio", ratio(float64(in.after.pool.PoolHits-in.before.pool.PoolHits), gets), int(gets))
	r.add("runtime.allocs_per_msg", "count", float64(in.after.mem.Mallocs-in.before.mem.Mallocs)/msgs, n)
	r.add("runtime.alloc_bytes_per_msg", "B", float64(in.after.mem.TotalAlloc-in.before.mem.TotalAlloc)/msgs, n)
	r.add("runtime.gc_per_s", "1/s", float64(in.after.mem.NumGC-in.before.mem.NumGC)/secs, 1)
	r.add("runtime.goroutines", "count", float64(in.goroutines), 1)

	// CPU attribution: the traced half's CPU per message, split by the
	// profile's per-layer shares; the rows sum to it.
	cpuB := cpuPerMsg([]tick{a, b})
	weights := attribute(in.profile.stacks, in.profile.weights)
	rows, unattributed := busyRows(cpuB, weights)
	for _, l := range layerNames {
		r.add(l+".busy_us_per_msg", "us", rows[l], int(weights[l]))
	}
	r.add("unattributed_us_per_msg", "us", unattributed, int(weights[""]))
	if len(weights) == 0 {
		r.notes = append(r.notes, "cpu profile has no samples: busy rows are 0")
	}
	r.add("trace.overhead_frac", "frac", cpuB/cpuPerMsg(in.ticksA)-1, n)

	late := in.b.late.sorted()
	lateMax := 0.0
	if len(late) > 0 {
		lateMax = late[len(late)-1]
	}
	r.add("gen.late_p50_us", "us", percentile(late, 50), len(late))
	r.add("gen.late_max_us", "us", lateMax, len(late))
}

// busyRows splits cpu (µs per message) over the layers in proportion to
// their profile weights; the rows and the unattributed share sum to cpu.
func busyRows(cpu float64, weights map[string]int64) (map[string]float64, float64) {
	var total int64
	for _, w := range weights {
		total += w
	}
	rows := make(map[string]float64, len(layerNames))
	for _, l := range layerNames {
		rows[l] = cpu * ratio(float64(weights[l]), float64(total))
	}
	return rows, cpu * ratio(float64(weights[""]), float64(total))
}

// codecNsPerPkt times utcp.Encode and Decode over segments with the
// sizes the run's own data datagrams had, and returns the median over
// five passes of the time per packet; 0 with no sizes.
func codecNsPerPkt(sizes []int) float64 {
	if len(sizes) == 0 {
		return 0
	}
	payload := make([]byte, utcp.DefaultMSS)
	segs := make([]tcp.Segment, 0, len(sizes))
	for i, n := range sizes {
		p := n - utcp.HeaderLen
		if p < 0 {
			p = 0
		}
		if p > len(payload) {
			p = len(payload)
		}
		segs = append(segs, tcp.Segment{Seq: uint64(i) * 1000, Ack: 1, Flags: tcp.FlagACK, Window: 1 << 20, Payload: payload[:p]})
	}
	var out tcp.Segment
	var sack [tcp.MaxSACKBlocks]tcp.SACKBlock
	var passes []float64
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		for i := range segs {
			pb := utcp.Encode(&segs[i])
			if err := utcp.Decode(pb.Bytes(), &out, &sack); err != nil {
				pb.Release()
				return -1
			}
			pb.Release()
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(len(segs)))
	}
	return median(passes)
}
