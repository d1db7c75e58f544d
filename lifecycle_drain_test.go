package minion

import (
	"bytes"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/wire"
)

// Lifecycle tests at the public API level: graceful group drain across a
// mixed uCOBS/uTLS population, the Dial timeout covering the TLS
// handshake, close_notify interop with a stock crypto/tls peer at drain,
// and exactly-once OnResult accounting while a fault storm kills
// connections mid-flight.

// TestGroupShutdownDrains512Mixed is the drain acceptance test: 512
// active connections — half uCOBS, half uTLS — attached to one client
// LoopGroup, each with queued TrySend traffic, must drain within the
// Shutdown context: queued datagrams flushed (OnResult nil) or reported
// (OnResult error), every fate exactly once, and the close sequence sent.
func TestGroupShutdownDrains512Mixed(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const nConns = 512
	const perConn = 4

	g := NewLoopGroup(0)
	// Server side: one listener per protocol, its own loops, echo-free
	// sinks (OnMessage drains the read side so client flushes complete).
	var listeners []*Listener
	var srvMu sync.Mutex
	var srvConns []Conn
	addr := make(map[Protocol]string)
	for _, proto := range []Protocol{ProtoUCOBSTCP, ProtoUTLSTCP} {
		ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Loops: -1}.
			Listen(proto, "tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen %v: %v", proto, err)
		}
		listeners = append(listeners, ln)
		addr[proto] = ln.Addr().String()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				srvMu.Lock()
				srvConns = append(srvConns, c)
				srvMu.Unlock()
				c.OnMessage(func([]byte) {})
			}
		}()
	}
	defer func() {
		for _, ln := range listeners {
			ln.Close()
		}
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, c := range srvConns {
			c.Close()
		}
	}()

	// Dial the mixed population and queue traffic on every connection.
	// fates[i*perConn+j] counts OnResult invocations for conn i datagram j.
	fates := make([]atomic.Int32, nConns*perConn)
	var accepted atomic.Int64
	payload := bytes.Repeat([]byte("drain-me-"), 57) // ~512B
	var wg sync.WaitGroup
	dialErrs := make(chan error, nConns)
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			proto := ProtoUCOBSTCP
			if i%2 == 1 {
				proto = ProtoUTLSTCP
			}
			c, err := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: g}.
				Dial(proto, "tcp", addr[proto])
			if err != nil {
				dialErrs <- fmt.Errorf("conn %d: %w", i, err)
				return
			}
			for j := 0; j < perConn; j++ {
				slot := &fates[i*perConn+j]
				if err := c.TrySend(payload, Options{OnResult: func(error) { slot.Add(1) }}); err == nil {
					accepted.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	close(dialErrs)
	for err := range dialErrs {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	st := g.Shutdown(ctx)
	elapsed := time.Since(start)
	if ctx.Err() != nil {
		t.Fatalf("Shutdown overran its context (%v elapsed): %+v", elapsed, st)
	}
	if st.Conns != nConns {
		t.Errorf("DrainStats.Conns = %d, want %d", st.Conns, nConns)
	}
	if st.Flushed+st.Aborted != st.Conns {
		t.Errorf("Flushed(%d) + Aborted(%d) != Conns(%d)", st.Flushed, st.Aborted, st.Conns)
	}
	if st.Aborted != 0 {
		t.Errorf("%d connections aborted under a generous deadline (elapsed %v)", st.Aborted, elapsed)
	}
	if got := len(st.PerLoop); got != g.Len() {
		t.Errorf("PerLoop has %d entries, want %d", got, g.Len())
	}
	var fired int64
	for i := range fates {
		n := fates[i].Load()
		if n > 1 {
			t.Fatalf("datagram %d reported its fate %d times", i, n)
		}
		fired += int64(n)
	}
	if fired != accepted.Load() {
		t.Errorf("OnResult fired %d times for %d accepted datagrams", fired, accepted.Load())
	}
	g.Close()
}

// TestDialTimeoutCoversTLSHandshake: a peer that completes the transport
// handshake but never answers the uTLS hello must not hang the dialer —
// DialConfig.Timeout covers the handshake on kernel TCP and on uTCP
// alike, and datagrams queued behind it report the typed ErrTimeout.
func TestDialTimeoutCoversTLSHandshake(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	for _, proto := range []Protocol{ProtoUTLSTCP, ProtoUTLSuTCP} {
		network := networkOf(proto)
		t.Run(network, func(t *testing.T) {
			addr := silentTLSPeer(t, network)
			c, err := DialConfig{
				TCPConfig: TCPConfig{NoDelay: true, SendBufBytes: 16 * 1024},
				Timeout:   400 * time.Millisecond,
			}.Dial(proto, network, addr)
			if err != nil {
				t.Fatalf("Dial (the transport handshake should succeed): %v", err)
			}
			defer c.Close()

			// Fill the pre-handshake pending budget so later datagrams queue
			// in the retry queue — the ones whose OnResult sees the abort
			// cause.
			results := make(chan error, 64)
			payload := make([]byte, 4096)
			accepted := 0
			for i := 0; i < 64; i++ {
				err := c.TrySend(payload, Options{OnResult: func(e error) { results <- e }})
				if errors.Is(err, ErrWouldBlock) {
					break
				}
				if err != nil {
					t.Fatalf("TrySend: %v", err)
				}
				accepted++
			}
			if accepted == 0 {
				t.Fatal("no TrySend accepted before the handshake")
			}
			deadline := time.After(10 * time.Second)
			sawTimeout := false
			for i := 0; i < accepted; i++ {
				select {
				case e := <-results:
					if errors.Is(e, ErrTimeout) {
						sawTimeout = true
					}
				case <-deadline:
					t.Fatalf("only %d/%d OnResult callbacks after handshake timeout", i, accepted)
				}
			}
			if !sawTimeout {
				t.Error("no queued datagram reported the typed ErrTimeout after the handshake deadline")
			}
		})
	}
}

// silentTLSPeer starts a peer on network that completes the transport
// handshake, then reads nothing and answers nothing: a raw TCP acceptor
// holding its connections open, or a uCOBS-over-uTCP listener.
func silentTLSPeer(t *testing.T, network string) string {
	t.Helper()
	if network == "udp" {
		ln, err := Listen(ProtoUCOBSuTCP, "udp", "127.0.0.1:0", TCPConfig{})
		if err != nil {
			t.Fatalf("Listen: %v", err)
		}
		t.Cleanup(func() { ln.Close() })
		return ln.Addr().String()
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("net.Listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold open, read nothing, answer nothing
		}
	}()
	return ln.Addr().String()
}

// TestDrainSendsCloseNotifyToStockPeer: a graceful group shutdown must
// end the TLS session properly — the stock crypto/tls peer reads the
// remaining data and then a clean io.EOF (close_notify), never an
// unexpected-EOF surprise.
func TestDrainSendsCloseNotifyToStockPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	srvTLS, _, cert, pool := interopTLS(t)
	g := NewLoopGroup(2)
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true, TLS: srvTLS}, Group: g}.
		Listen(ProtoUTLSTCP, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	srvReady := make(chan Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.OnMessage(func(msg []byte) { c.Send(msg, Options{}) })
		srvReady <- c
	}()

	sc, err := tls.Dial("tcp", ln.Addr().String(), stockTLSConfig(cert, pool))
	if err != nil {
		t.Fatalf("stock tls.Dial: %v", err)
	}
	defer sc.Close()
	if _, err := sc.Write([]byte("ping")); err != nil {
		t.Fatalf("stock Write: %v", err)
	}
	echo := make([]byte, 4)
	if _, err := io.ReadFull(sc, echo); err != nil || string(echo) != "ping" {
		t.Fatalf("echo = %q, %v", echo, err)
	}
	<-srvReady

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ln.Drain(ctx); err != nil {
		t.Fatalf("Listener.Drain: %v", err)
	}
	st := g.Shutdown(ctx)
	if st.Conns != 1 || st.Flushed != 1 {
		t.Errorf("DrainStats = %+v, want 1 conn flushed", st)
	}
	// The stock side must observe a proper TLS closure: io.EOF exactly.
	sc.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := sc.Read(make([]byte, 64)); err != io.EOF {
		t.Fatalf("stock Read after drain = %v, want io.EOF (close_notify)", err)
	}
	g.Close()
}

// TestShutdownExactlyOnceOnResultUnderFaults: with a write-fault storm
// killing connections mid-flight, every accepted TrySend datagram still
// reports its fate exactly once through Shutdown and teardown.
func TestShutdownExactlyOnceOnResultUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const nConns = 32
	const perConn = 8

	g := NewLoopGroup(2)
	ln, err := ListenConfig{TCPConfig: TCPConfig{NoDelay: true}, Loops: -1}.
		Listen(ProtoUCOBSTCP, "tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	var srvMu sync.Mutex
	var srvConns []Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			srvMu.Lock()
			srvConns = append(srvConns, c)
			srvMu.Unlock()
			c.OnMessage(func([]byte) {})
		}
	}()
	defer func() {
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, c := range srvConns {
			c.Close()
		}
	}()

	conns := make([]Conn, nConns)
	for i := range conns {
		c, err := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: g}.
			Dial(ProtoUCOBSTCP, "tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("Dial %d: %v", i, err)
		}
		conns[i] = c
	}

	// Every 5th write dies with EPIPE: some connections fail mid-storm,
	// some survive to the drain. Either way each datagram's OnResult must
	// fire exactly once.
	var wn atomic.Int64
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		if wn.Add(1)%5 == 0 {
			return 0, syscall.EPIPE
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	fates := make([]atomic.Int32, nConns*perConn)
	var accepted atomic.Int64
	payload := bytes.Repeat([]byte("fated-"), 64)
	for i, c := range conns {
		for j := 0; j < perConn; j++ {
			slot := &fates[i*perConn+j]
			if err := c.TrySend(payload, Options{OnResult: func(error) { slot.Add(1) }}); err == nil {
				accepted.Add(1)
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	g.Shutdown(ctx)
	wire.SetFaultHooks(nil)

	deadline := time.Now().Add(10 * time.Second)
	for {
		var fired int64
		for i := range fates {
			n := fates[i].Load()
			if n > 1 {
				t.Fatalf("datagram %d reported its fate %d times", i, n)
			}
			fired += int64(n)
		}
		if fired == accepted.Load() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("OnResult fired %d times for %d accepted datagrams", fired, accepted.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	g.Close()
}
