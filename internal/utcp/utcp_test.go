package utcp

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"minion/internal/buf"
	"minion/internal/tcp"
	"minion/internal/wire"
)

// leakCheck snapshots the buffer-pool ledger and goroutine count and
// asserts both return to baseline at cleanup — every transport test runs
// under it so a leaked arena or reader goroutine fails the suite, not a
// later one.
func leakCheck(t *testing.T) {
	t.Helper()
	bufBefore := buf.Stats()
	goroBefore := runtime.NumGoroutine()
	t.Cleanup(func() {
		wire.SetFaultHooks(nil)
		waitBufBalance(t, bufBefore)
		waitGoroutines(t, goroBefore)
	})
}

func waitBufBalance(t *testing.T, before buf.PoolStats) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	var g, p, u uint64
	for time.Now().Before(deadline) {
		now := buf.Stats()
		g, p, u = now.Gets-before.Gets, now.Puts-before.Puts, now.Unpooled-before.Unpooled
		if p >= g-u {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("buffer leak: ΔGets=%d ΔUnpooled=%d ΔPuts=%d (want puts >= gets-unpooled)", g, u, p)
}

func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines did not return: %d now vs %d baseline", runtime.NumGoroutine(), before)
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// dialLoopback spins up a listener and a dialed client on 127.0.0.1 and
// returns both ends established-or-establishing, with cleanup wired.
func dialLoopback(t *testing.T, cliCfg, srvCfg tcp.Config) (*Client, *Endpoint, *Listener) {
	t.Helper()
	ln, err := Listen("udp", "127.0.0.1:0", ListenerConfig{Config: srvCfg})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(ln.Close)
	cli, err := Dial("udp", ln.Addr().String(), cliCfg, wire.UDPConfig{})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(cli.Release)
	ep, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	return cli, ep, ln
}

// TestLoopbackEcho pushes a payload client→server over real loopback
// sockets, echoes it back, and closes gracefully — the basic end-to-end
// sanity of handshake, data, ACK clock, and FIN teardown on wall-clock
// timers.
func TestLoopbackEcho(t *testing.T) {
	leakCheck(t)
	cli, ep, _ := dialLoopback(t, tcp.Config{NoDelay: true}, tcp.Config{NoDelay: true})

	const total = 256 * 1024
	payload := make([]byte, total)
	for i := range payload {
		payload[i] = byte(i * 7)
	}

	// Server: echo everything back, close after echoing total bytes.
	echoed := 0
	ep.Do(func() {
		sc := ep.Conn()
		rbuf := make([]byte, 64*1024)
		var pump func()
		pump = func() {
			for {
				n, err := sc.Read(rbuf)
				if n > 0 {
					if _, werr := sc.Write(rbuf[:n]); werr != nil {
						t.Errorf("server write: %v", werr)
					}
					echoed += n
				}
				if err != nil || n == 0 {
					break
				}
			}
			if echoed >= total {
				sc.Close()
			}
		}
		sc.OnReadable(pump)
	})

	// Client: write all, then read the echo back.
	written := 0
	cli.Do(func() {
		cc := cli.Conn()
		var fill func()
		fill = func() {
			for written < total {
				n, err := cc.Write(payload[written:])
				written += n
				if err == tcp.ErrWouldBlock {
					return // OnWritable refills
				}
				if err != nil {
					t.Errorf("client write: %v", err)
					return
				}
			}
		}
		cc.OnWritable(fill)
		fill()
	})

	got := make([]byte, 0, total)
	readDone := make(chan struct{})
	cli.Do(func() {
		cc := cli.Conn()
		rbuf := make([]byte, 64*1024)
		cc.OnReadable(func() {
			for {
				n, err := cc.Read(rbuf)
				if n > 0 {
					got = append(got, rbuf[:n]...)
				}
				if err != nil || n == 0 {
					break
				}
			}
			if len(got) >= total {
				select {
				case <-readDone:
				default:
					close(readDone)
				}
			}
		})
	})

	select {
	case <-readDone:
	case <-time.After(30 * time.Second):
		t.Fatalf("timeout: %d/%d echoed back", len(got), total)
	}
	var ok bool
	cli.Do(func() { ok = bytes.Equal(got[:total], payload) })
	if !ok {
		t.Fatal("echoed payload differs")
	}

	// Graceful teardown: close the client side, wait for the close
	// callback, then release sockets.
	closed := make(chan error, 1)
	cli.Do(func() {
		cc := cli.Conn()
		cc.OnClose(func(err error) { closed <- err })
		cc.Close()
	})
	select {
	case err := <-closed:
		if err != nil && err != tcp.ErrClosed {
			t.Errorf("close surfaced %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("graceful close did not complete")
	}
	ep.Detach()
}
