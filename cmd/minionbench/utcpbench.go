package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"minion/internal/tcp"
	"minion/internal/utcp"
	"minion/internal/wire"
)

// utcpbench measures the userspace uTCP-over-UDP transport end to end on
// real loopback sockets: a dialed client streams messages into an
// unordered listener endpoint under seeded datagram loss, and the run
// reports the delivered-message rate plus the three ratios CI trends —
// allocations per datagram (the zero-copy discipline), retransmissions
// per data segment (ARQ efficiency at the pinned loss rate), and
// out-of-order deliveries per received segment (proof the unordered
// machinery stays engaged; this one is gated against FALLING).

type utcpBenchResult struct {
	Messages          int     `json:"messages"`
	MsgBytes          int     `json:"msg_bytes"`
	LossPct           float64 `json:"loss_pct"`
	Datagrams         int64   `json:"datagrams"`
	NsPerOp           float64 `json:"ns_per_op"` // one delivered message
	MBPerSec          float64 `json:"mb_per_sec"`
	AllocsPerDatagram float64 `json:"allocs_per_datagram"`
	RetransmitRatio   float64 `json:"retransmit_ratio"`
	OOORatio          float64 `json:"ooo_ratio"`
}

func runUTCPBench(args []string) error {
	fs := flag.NewFlagSet("utcpbench", flag.ExitOnError)
	dir := fs.String("benchdir", "bench-out", "output directory for BENCH_utcp.json")
	msgs := fs.Int("msgs", 2000, "messages to deliver")
	msgBytes := fs.Int("msgbytes", 1000, "bytes per message")
	loss := fs.Float64("loss", 0.03, "data-datagram drop probability")
	seed := fs.Int64("seed", 42, "loss schedule seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	res, err := benchUTCP(*msgs, *msgBytes, *loss, *seed)
	if err != nil {
		return err
	}
	path := filepath.Join(*dir, "BENCH_utcp.json")
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("utcp %6.0f ns/msg %8.2f MB/s %6.2f allocs/datagram  retrans %.3f  ooo %.3f  -> %s\n",
		res.NsPerOp, res.MBPerSec, res.AllocsPerDatagram, res.RetransmitRatio, res.OOORatio, path)
	return nil
}

func benchUTCP(msgs, msgBytes int, loss float64, seed int64) (utcpBenchResult, error) {
	ln, err := utcp.Listen("udp", "127.0.0.1:0", utcp.ListenerConfig{
		Config: tcp.Config{Unordered: true, NoDelay: true},
	})
	if err != nil {
		return utcpBenchResult{}, err
	}
	defer ln.Close()
	cli, err := utcp.Dial("udp", ln.Addr().String(), tcp.Config{NoDelay: true}, wire.UDPConfig{})
	if err != nil {
		return utcpBenchResult{}, err
	}
	defer cli.Release()
	ep, err := ln.Accept()
	if err != nil {
		return utcpBenchResult{}, err
	}

	// Let the handshake finish on a clean wire before the loss schedule
	// starts, so the measured interval is all data path.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var st tcp.State
		cli.Do(func() { st = cli.Conn().State() })
		if st == tcp.StateEstablished {
			break
		}
		if time.Now().After(deadline) {
			return utcpBenchResult{}, fmt.Errorf("handshake never completed")
		}
		time.Sleep(time.Millisecond)
	}

	// Receiver: count per-byte first coverage; complete at full coverage.
	total := msgs * msgBytes
	covered := make([]bool, total)
	coveredBytes := 0
	done := make(chan struct{})
	ep.Do(func() {
		sc := ep.Conn()
		sc.OnReadable(func() {
			for {
				d, err := sc.ReadUnordered()
				if err != nil {
					break
				}
				for i := range d.Data {
					off := int(d.Offset) + i
					if off < total && !covered[off] {
						covered[off] = true
						coveredBytes++
					}
				}
				d.Release()
			}
			if coveredBytes >= total {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		})
	})

	// Seeded Bernoulli loss on data-sized datagrams only (ACKs and the
	// teardown ride clean), mutex-guarded: hooks run on every loop.
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		if size <= 400 {
			return 0, nil
		}
		mu.Lock()
		drop := rng.Float64() < loss
		mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	t0 := time.Now()

	payload := make([]byte, msgBytes)
	for i := 0; i < msgs; i++ {
		for {
			var werr error
			cli.Do(func() {
				_, werr = cli.Conn().WriteMsg(payload, tcp.WriteOptions{Tag: tcp.TagDefault})
			})
			if werr == nil {
				break
			}
			if werr != tcp.ErrWouldBlock {
				return utcpBenchResult{}, fmt.Errorf("WriteMsg %d: %v", i, werr)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	select {
	case <-done:
	case <-time.After(120 * time.Second):
		var got int
		ep.Do(func() { got = coveredBytes })
		return utcpBenchResult{}, fmt.Errorf("transfer stalled: %d/%d bytes", got, total)
	}
	elapsed := time.Since(t0)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	wire.SetFaultHooks(nil)

	var sendStats, recvStats tcp.Stats
	var sentPkts, recvPkts int64
	cli.Do(func() {
		sendStats = cli.Conn().Stats()
		sentPkts = cli.Binding().Stats().PacketsOut
	})
	ep.Do(func() {
		recvStats = ep.Conn().Stats()
		recvPkts = ep.Binding().Stats().PacketsOut
	})

	res := utcpBenchResult{
		Messages:  msgs,
		MsgBytes:  msgBytes,
		LossPct:   loss * 100,
		Datagrams: sentPkts + recvPkts,
		NsPerOp:   float64(elapsed.Nanoseconds()) / float64(msgs),
		MBPerSec:  float64(total) / 1e6 / elapsed.Seconds(),
	}
	if res.Datagrams > 0 {
		res.AllocsPerDatagram = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Datagrams)
	}
	if sendStats.SegsSent > 0 {
		res.RetransmitRatio = float64(sendStats.SegsRetrans) / float64(sendStats.SegsSent)
	}
	if recvStats.SegsReceived > 0 {
		res.OOORatio = float64(recvStats.DeliveredOOO) / float64(recvStats.SegsReceived)
	}

	// Graceful close so the sockets drain before the deferred teardown.
	closed := make(chan struct{})
	ep.Do(func() { ep.Conn().OnClose(func(error) { close(closed) }) })
	cli.Do(func() { cli.Conn().Close() })
	ep.Do(func() { ep.Conn().Close() })
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
	}
	ep.Detach()
	return res, nil
}
