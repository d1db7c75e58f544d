package minion

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minion/internal/sim"
)

// These tests cover the readiness-driven (poll) runtime shape at the
// public API level: 512 connections multiplexed over epoll-parked loops
// with strict per-connection ordering, the constant-goroutine shape, and
// the TrySend completion-reporting contract (Options.OnResult).

// TestLoopbackPollLoops512 is the poll-mode scale proof: 512 concurrent
// connections multiplexed over a handful of epoll-parked loops on each
// side — zero goroutines per connection — with every connection's echoes
// arriving strictly in order, under -race. On platforms without a
// poller the group runs the goroutine fallback and only the goroutine
// bound is skipped.
func TestLoopbackPollLoops512(t *testing.T) {
	if testing.Short() {
		t.Skip("real-socket test")
	}
	const nConns = 512
	const perConn = 4
	addr, stop := sharedEchoServer(t, ProtoUCOBSTCP, "tcp", 4)
	defer stop()
	g := NewLoopGroup(4)
	defer g.Close()
	dc := DialConfig{TCPConfig: TCPConfig{NoDelay: true}, Group: g}

	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	errs := make(chan error, nConns)
	var peak atomic.Int64
	for id := 0; id < nConns; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := dc.Dial(ProtoUCOBSTCP, "tcp", addr)
			if err != nil {
				errs <- fmt.Errorf("conn %d: dial: %w", id, err)
				return
			}
			defer c.Close()
			got := make(chan string, perConn)
			c.OnMessage(func(msg []byte) { got <- string(msg) })
			for seq := 0; seq < perConn; seq++ {
				msg := []byte(fmt.Sprintf("conn-%d-msg-%d", id, seq))
				deadline := time.Now().Add(30 * time.Second)
				for {
					err := c.Send(msg, Options{})
					if err == nil {
						break
					}
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("conn %d: send %d: %w", id, seq, err)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			if id == 0 {
				peak.Store(int64(runtime.NumGoroutine()))
			}
			for seq := 0; seq < perConn; seq++ {
				select {
				case m := <-got:
					// Strict order: echo seq must match send seq exactly.
					want := fmt.Sprintf("conn-%d-msg-%d", id, seq)
					if m != want {
						errs <- fmt.Errorf("conn %d: echo %q out of order, want %q", id, m, want)
						return
					}
				case <-time.After(60 * time.Second):
					errs <- fmt.Errorf("conn %d: timed out after %d/%d echoes", id, seq, perConn)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runtime.GOOS == "linux" {
		// The whole point: 512 connections (plus the server's 512) added
		// no per-connection goroutines beyond the test's own driver
		// goroutines (one per client conn here) and the fixed per-loop
		// runtime. The goroutine fallback would add 2048 on top.
		if p := int(peak.Load()); p > baseline+nConns+64 {
			t.Errorf("goroutines at full load: %d (baseline %d + %d test drivers): per-connection goroutines crept back into poll mode",
				p, baseline, nConns)
		}
	}
}

// TestTrySendOnResultSim: on simulated substrates TrySend is synchronous,
// so OnResult(nil) fires before TrySend returns.
func TestTrySendOnResultSim(t *testing.T) {
	s := sim.New(3)
	pair := NewPair(s, ProtoUCOBSTCP, TCPConfig{NoDelay: true}, nil, nil)
	s.RunUntil(2 * time.Second)
	fired := false
	if err := pair.A.TrySend([]byte("sim-result"), Options{OnResult: func(e error) {
		fired = true
		if e != nil {
			t.Errorf("OnResult = %v, want nil", e)
		}
	}}); err != nil {
		t.Fatalf("TrySend: %v", err)
	}
	if !fired {
		t.Fatal("sim TrySend returned before invoking OnResult")
	}
}
