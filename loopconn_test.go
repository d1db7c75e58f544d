package minion

import (
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/wire"
)

// These tests pin the contracts of the one adapter behind every kernel-TCP
// and uTCP Conn — TrySend's retry pump, OnResult and OnConnError exactly
// once, drops reported at Close — as tables over both transports.

// networkOf is the Dial/Listen network a TCP-family stack runs on here:
// the uTCP stacks ride userspace uTCP over UDP.
func networkOf(proto Protocol) string {
	if proto == ProtoUCOBSuTCP || proto == ProtoUTLSuTCP {
		return "udp"
	}
	return "tcp"
}

// socketPair dials a loopback pair of proto through the public API —
// kernel TCP, or uTCP over UDP for the uTCP stacks — and returns both ends
// with cleanup wired.
func socketPair(t *testing.T, proto Protocol, cfg TCPConfig) (client, server Conn) {
	t.Helper()
	ln, err := Listen(proto, networkOf(proto), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	cli, err := Dial(proto, networkOf(proto), ln.Addr().String(), cfg)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cli.Close)
	srv, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	t.Cleanup(srv.Close)
	return cli, srv
}

// sinkListener listens for proto on loopback and accepts every
// connection with a handler that discards what arrives, closing it once
// its peer has gone.
func sinkListener(t *testing.T, proto Protocol, cfg TCPConfig) *Listener {
	t.Helper()
	ln, err := Listen(proto, networkOf(proto), "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.OnMessage(func([]byte) {})
			OnConnError(c, func(error) { c.Close() })
		}
	}()
	return ln
}

// TestTrySendNoStallFromDial is the TrySend-stall regression: a
// closed-loop sender that starts the moment Dial returns — while a uTLS
// handshake is still in flight, so its queue can refuse datagrams that no
// transport edge will ever retry — must keep getting OnResults. The
// sender waits at most 500 ms for one after each ErrWouldBlock; a longer
// silence is a stall.
func TestTrySendNoStallFromDial(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const (
		trials   = 8
		sends    = 600 // 720 KB: well past the 256 KiB TrySend budget
		msgSize  = 1200
		patience = 500 * time.Millisecond
	)
	for _, proto := range []Protocol{ProtoUTLSTCP, ProtoUCOBSTCP, ProtoUTLSuTCP} {
		t.Run(proto.String(), func(t *testing.T) {
			cfg := TCPConfig{NoDelay: true}
			ln := sinkListener(t, proto, cfg)
			msg := make([]byte, msgSize)
			for trial := 0; trial < trials; trial++ {
				c, err := Dial(proto, networkOf(proto), ln.Addr().String(), cfg)
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				var results, failed atomic.Int64
				progress := make(chan struct{}, 1)
				opt := Options{OnResult: func(err error) {
					if err != nil {
						failed.Add(1)
					}
					results.Add(1)
					select {
					case progress <- struct{}{}:
					default:
					}
				}}
				for sent := 0; sent < sends; {
					err := c.TrySend(msg, opt)
					if err == nil {
						sent++
						continue
					}
					if !errors.Is(err, ErrWouldBlock) {
						t.Fatalf("trial %d: TrySend: %v", trial, err)
					}
					select {
					case <-progress:
					case <-time.After(patience):
						t.Fatalf("trial %d: TrySend stalled: no OnResult for %v at %d sends, %d results",
							trial, patience, sent, results.Load())
					}
				}
				deadline := time.Now().Add(10 * time.Second)
				for results.Load() < sends {
					if time.Now().After(deadline) {
						t.Fatalf("trial %d: %d/%d OnResults", trial, results.Load(), sends)
					}
					time.Sleep(time.Millisecond)
				}
				if n := failed.Load(); n != 0 {
					t.Fatalf("trial %d: %d datagrams failed on a healthy connection", trial, n)
				}
				c.Close()
			}
		})
	}
}

// stuckPeer starts a peer on network that never reads and never answers,
// with a small kernel receive buffer: a kernel-TCP connection to it fills
// up, and a uTCP one never leaves SYN-SENT, so its writes only queue.
func stuckPeer(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("ListenPacket: %v", err)
		}
		t.Cleanup(func() { pc.Close() })
		pc.(*net.UDPConn).SetReadBuffer(4096)
		return pc.LocalAddr().String()
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.(*net.TCPConn).SetReadBuffer(4096)
			defer c.Close() // hold open until the listener closes
		}
	}()
	return l.Addr().String()
}

// TestTrySendOnResultReportsDropAtClose: datagrams accepted by TrySend
// but still queued when the connection closes must report their drop
// instead of vanishing. The test builds the stuck state first — a peer
// that never reads, and blocking Sends until the transport itself
// refuses, twice across a pause — so every TrySend after it is queued
// behind backpressure when Close runs.
func TestTrySendOnResultReportsDropAtClose(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for _, proto := range []Protocol{ProtoUCOBSTCP, ProtoUCOBSuTCP} {
		t.Run(networkOf(proto), func(t *testing.T) {
			addr := stuckPeer(t, networkOf(proto))
			c, err := Dial(proto, networkOf(proto), addr, TCPConfig{SendBufBytes: 16 * 1024, SockSendBufBytes: 4096})
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			payload := make([]byte, 1000)
			deadline := time.Now().Add(20 * time.Second)
			for refusals := 0; refusals < 2; {
				switch err := c.Send(payload, Options{}); {
				case errors.Is(err, ErrWouldBlock):
					refusals++
					time.Sleep(10 * time.Millisecond)
				case err != nil:
					t.Fatalf("Send: %v", err)
				default:
					refusals = 0
				}
				if time.Now().After(deadline) {
					t.Fatal("the transport never filled against a peer that does not read")
				}
			}

			var reported, dropped atomic.Int64
			accepted := 0
			for {
				err := c.TrySend(payload, Options{OnResult: func(e error) {
					if e != nil {
						dropped.Add(1)
					}
					reported.Add(1)
				}})
				if errors.Is(err, ErrWouldBlock) {
					break
				}
				if err != nil {
					t.Fatalf("TrySend: %v", err)
				}
				accepted++
			}
			if accepted == 0 {
				t.Fatal("no TrySend was accepted before backpressure")
			}
			c.Close()
			for reported.Load() != int64(accepted) {
				if time.Now().After(deadline) {
					t.Fatalf("OnResult fired %d/%d times after Close (silent loss)", reported.Load(), accepted)
				}
				time.Sleep(time.Millisecond)
			}
			if dropped.Load() == 0 {
				t.Error("peer never read yet no datagram reported a drop at Close")
			}
		})
	}
}

// TestTrySendOnResultRealSocket: Options.OnResult must report, exactly
// once per accepted datagram, nil for transmitted sends and an error for
// datagrams dropped at teardown while queued behind backpressure, over
// kernel TCP (see testResultAndErrorExactlyOnce).
func TestTrySendOnResultRealSocket(t *testing.T) {
	testResultAndErrorExactlyOnce(t, ProtoUCOBSTCP)
}

// TestUTCPResultAndErrorExactlyOnce is the same contract over uTCP, where
// the connection dies mid-retransmission-storm.
func TestUTCPResultAndErrorExactlyOnce(t *testing.T) {
	testResultAndErrorExactlyOnce(t, ProtoUCOBSuTCP)
}

// testResultAndErrorExactlyOnce drives the adapter's failure fan-out on
// proto's transport: a datagram sent on a healthy connection reports nil;
// datagrams accepted by TrySend during a total outage (the socket refuses
// every write) report their fate exactly once — sent, or ErrConnClosed
// at Close — and OnConnError fires exactly once with ErrConnClosed, while
// the connection dies with its writes stuck. The dialed socket's
// goroutines must then return.
func testResultAndErrorExactlyOnce(t *testing.T, proto Protocol) {
	if testing.Short() {
		t.Skip("close-linger test skipped in -short")
	}
	goros := runtime.NumGoroutine()
	cli, srv := socketPair(t, proto, TCPConfig{NoDelay: true})
	srv.OnMessage(func([]byte) {})
	// A server that closes once its client is gone, so a kernel-TCP
	// client's teardown need not wait out its read-side linger.
	OnConnError(srv, func(error) { srv.Close() })

	// A healthy wire first (which also finishes the handshake):
	// the probe's OnResult reports nil once the transport took it.
	probe := make(chan error, 1)
	if err := cli.TrySend([]byte("probe"), Options{OnResult: func(e error) { probe <- e }}); err != nil {
		t.Fatalf("probe send: %v", err)
	}
	select {
	case e := <-probe:
		if e != nil {
			t.Fatalf("OnResult for a deliverable datagram = %v, want nil", e)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnResult never fired for an accepted datagram")
	}

	// Total outage: kernel TCP's writer stalls as if the peer's
	// window were shut; UDP datagrams (data, retransmits, the FIN)
	// drop at the socket boundary.
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(int) (int, error) { return 0, syscall.EAGAIN }})
	defer wire.SetFaultHooks(nil)

	var accepted, results, multi atomic.Int64
	msg := make([]byte, 8*1024)
	for i := 0; i < 200; i++ {
		fired := new(atomic.Int64)
		err := cli.TrySend(msg, Options{OnResult: func(error) {
			if fired.Add(1) > 1 {
				multi.Add(1)
			}
			results.Add(1)
		}})
		if err == nil {
			accepted.Add(1)
		} else if !errors.Is(err, ErrWouldBlock) {
			t.Fatalf("TrySend: %v", err)
		}
	}

	errs := make(chan error, 2)
	if !OnConnError(cli, func(err error) { errs <- err }) {
		t.Fatal("OnConnError unsupported")
	}
	// Close mid-outage: the close sequence cannot travel, the
	// transport's linger reclaims the connection, and every
	// accepted datagram's fate reports.
	cli.Close()
	select {
	case err := <-errs:
		if err != ErrConnClosed {
			t.Errorf("terminal error = %v, want ErrConnClosed", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("OnConnError never fired")
	}
	deadline := time.Now().Add(10 * time.Second)
	for results.Load() < accepted.Load() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got, want := results.Load(), accepted.Load(); got != want {
		t.Errorf("OnResult fired %d times for %d accepted datagrams", got, want)
	}
	if m := multi.Load(); m != 0 {
		t.Errorf("%d datagrams reported more than once", m)
	}
	select {
	case err := <-errs:
		t.Errorf("OnConnError fired twice (second: %v)", err)
	default:
	}

	wire.SetFaultHooks(nil)
	srv.Close()
	for time.Now().Before(deadline) && runtime.NumGoroutine() > goros+4 {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goros+4 {
		t.Errorf("goroutines did not return: %d now vs %d baseline", n, goros)
	}
}
