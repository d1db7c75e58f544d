package utcp

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/tcp"
	"minion/internal/wire"
)

// Chaos suite: the wire.FaultHooks seam drives the real-socket uTCP path
// through the failure weather a deployment produces — receive-side EAGAIN
// storms, kernel-truncated datagrams, and a socket that goes dark while
// the retransmission machinery is hot. Everything above the seam runs its
// production code.

// chaosPayload fills p with a byte pattern keyed to absolute stream
// offset, so any delivered byte is verifiable in isolation.
func chaosPayload(p []byte) {
	for i := range p {
		p[i] = byte(i*7 + 3)
	}
}

// waitEstablished polls the client connection into StateEstablished.
func waitEstablished(t *testing.T, cli *Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st tcp.State
		if !cli.Do(func() { st = cli.Conn().State() }) {
			t.Fatal("client loop closed during handshake")
		}
		if st == tcp.StateEstablished {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("handshake never completed")
}

// gracefulClose closes the client side, waits for the server's close
// callback, and detaches the endpoint — the teardown leakCheck expects.
func gracefulClose(t *testing.T, cli *Client, ep *Endpoint) {
	t.Helper()
	closed := make(chan struct{})
	ep.Do(func() { ep.Conn().OnClose(func(error) { close(closed) }) })
	cli.Do(func() { cli.Conn().Close() })
	ep.Do(func() { ep.Conn().Close() })
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Error("graceful close did not complete")
	}
	ep.Detach()
}

// TestReadFaultStormRecovers stalls every socket read in the process with
// an EAGAIN storm for 300ms mid-transfer — receive-side readiness lies,
// ACKs stop flowing, the sender's RTO fires into the void — then clears
// the weather and requires the transfer to finish intact with nothing
// leaked.
func TestReadFaultStormRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("storm test skipped in -short")
	}
	leakCheck(t)
	cli, ep, _ := dialLoopback(t, tcp.Config{NoDelay: true}, tcp.Config{NoDelay: true})
	waitEstablished(t, cli)

	const total = 64 * 1024
	stormUntil := time.Now().Add(300 * time.Millisecond)
	var stormed atomic.Int64
	wire.SetFaultHooks(&wire.FaultHooks{Read: func(size int) (int, error) {
		if time.Now().Before(stormUntil) {
			stormed.Add(1)
			return 0, syscall.EAGAIN
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	data := make([]byte, 0, total)
	done := make(chan struct{})
	ep.Do(func() {
		sc := ep.Conn()
		rbuf := make([]byte, 32*1024)
		sc.OnReadable(func() {
			for {
				n, err := sc.Read(rbuf)
				if n > 0 {
					data = append(data, rbuf[:n]...)
				}
				if err != nil || n == 0 {
					break
				}
			}
			if len(data) >= total {
				select {
				case <-done:
				default:
					close(done)
				}
			}
		})
	})

	payload := make([]byte, total)
	chaosPayload(payload)
	cli.Do(func() {
		if _, err := cli.Conn().Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
	})

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("transfer stalled: %d/%d bytes", len(data), total)
	}
	if stormed.Load() == 0 {
		t.Error("storm never hit a read — the seam is dead")
	}
	var bad int
	ep.Do(func() {
		for i := 0; i < total; i++ {
			if data[i] != byte(i*7+3) {
				bad++
			}
		}
	})
	if bad != 0 {
		t.Fatalf("%d corrupt bytes after storm recovery", bad)
	}
	wire.SetFaultHooks(nil)
	gracefulClose(t, cli, ep)
}

// TestTruncatedDatagramsRecovered injects kernel-style datagram
// truncation on the receive path: some reads are cut mid-header (the
// codec must reject them — Malformed counts, the ARQ retransmits) and
// some mid-payload (a valid shorter segment — the ARQ recovers the
// severed tail). The transfer must complete byte-perfect either way.
func TestTruncatedDatagramsRecovered(t *testing.T) {
	if testing.Short() {
		t.Skip("truncation test skipped in -short")
	}
	leakCheck(t)
	cli, ep, _ := dialLoopback(t,
		tcp.Config{NoDelay: true},
		tcp.Config{NoDelay: true, Unordered: true},
	)
	waitEstablished(t, cli)

	// The weather is time-bounded: a periodic truncation pattern left on
	// forever can phase-lock with RTO-paced recovery (every retransmission
	// landing on a truncating read index), so the chaos window closes
	// after a second and the transfer must then finish on a clean wire.
	truncUntil := time.Now().Add(time.Second)
	var reads atomic.Int64
	wire.SetFaultHooks(&wire.FaultHooks{Read: func(size int) (int, error) {
		if !time.Now().Before(truncUntil) {
			return 0, nil
		}
		switch n := reads.Add(1); {
		case n%11 == 0:
			return 10, nil // mid-header: Decode rejects, loss recovery pays
		case n%4 == 0:
			return 300, nil // mid-payload: a shorter but valid segment
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	const total = 96 * 1024
	covered := make([]bool, total)
	coveredBytes := 0
	bad := 0
	done := make(chan struct{})
	ep.Do(func() {
		sc := ep.Conn()
		sc.OnReadable(func() {
			for {
				d, err := sc.ReadUnordered()
				if err != nil {
					break
				}
				for i, bb := range d.Data {
					off := int(d.Offset) + i
					if off >= total || covered[off] {
						continue
					}
					covered[off] = true
					coveredBytes++
					if bb != byte(off*7+3) {
						bad++
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

	payload := make([]byte, total)
	chaosPayload(payload)
	cli.Do(func() {
		if _, err := cli.Conn().Write(payload); err != nil {
			t.Errorf("write: %v", err)
		}
	})

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		var got int
		ep.Do(func() { got = coveredBytes })
		t.Fatalf("transfer stalled: %d/%d bytes covered", got, total)
	}
	var badBytes int
	var malformed int64
	ep.Do(func() {
		badBytes = bad
		malformed = ep.Binding().Stats().Malformed
	})
	var cliMalformed int64
	cli.Do(func() { cliMalformed = cli.Binding().Stats().Malformed })
	if badBytes != 0 {
		t.Fatalf("%d corrupt bytes after truncation recovery", badBytes)
	}
	if malformed+cliMalformed == 0 {
		t.Error("no malformed packets counted — truncation never bit a header")
	}
	wire.SetFaultHooks(nil)
	gracefulClose(t, cli, ep)
}

// TestSocketDeathMidRetransmit kills the network under a hot
// retransmission storm: bulk data in flight, every outgoing datagram
// dropped, then both sides abort. OnClose must fire exactly once per
// side — across the abort, a redundant Close, and the listener's own
// teardown — and every goroutine must return once the sockets release.
//
// No buffer-ledger assertion here: aborting with queued send data
// legitimately strands the send queue's references for the GC instead of
// returning them to the pool.
func TestSocketDeathMidRetransmit(t *testing.T) {
	if testing.Short() {
		t.Skip("abort test skipped in -short")
	}
	goroBefore := runtime.NumGoroutine()
	cli, ep, ln := dialLoopback(t, tcp.Config{NoDelay: true}, tcp.Config{NoDelay: true})
	waitEstablished(t, cli)

	wire.SetFaultHooks(&wire.FaultHooks{Write: func(int) (int, error) {
		return 0, syscall.ENETUNREACH
	}})
	defer wire.SetFaultHooks(nil)

	var cliFires, epFires atomic.Int64
	cliClosed := make(chan struct{}, 4)
	epClosed := make(chan struct{}, 4)
	cli.Do(func() {
		cli.Conn().OnClose(func(error) { cliFires.Add(1); cliClosed <- struct{}{} })
	})
	ep.Do(func() {
		ep.Conn().OnClose(func(error) { epFires.Add(1); epClosed <- struct{}{} })
	})

	// Fill the send buffer into the dead network, then wait for the
	// retransmission machinery to engage.
	bulk := make([]byte, 32*1024)
	chaosPayload(bulk)
	cli.Do(func() {
		for {
			if _, err := cli.Conn().Write(bulk); err != nil {
				break // ErrWouldBlock: buffer full, storm guaranteed
			}
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		var retrans int
		cli.Do(func() { retrans = cli.Conn().Stats().SegsRetrans })
		if retrans > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("retransmission never started under total loss")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Death mid-storm: abort both sides, then hit each with a redundant
	// Close and Abort — the callback must not re-fire.
	cli.Do(func() { cli.Conn().Abort() })
	ep.Do(func() { ep.Conn().Abort() })
	for _, ch := range []chan struct{}{cliClosed, epClosed} {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatal("OnClose never fired after abort")
		}
	}
	cli.Do(func() { cli.Conn().Close(); cli.Conn().Abort() })
	ep.Do(func() { ep.Conn().Close(); ep.Conn().Abort() })
	time.Sleep(50 * time.Millisecond)
	if n := cliFires.Load(); n != 1 {
		t.Errorf("client OnClose fired %d times, want 1", n)
	}
	if n := epFires.Load(); n != 1 {
		t.Errorf("server OnClose fired %d times, want 1", n)
	}

	// Release the sockets; every reader and loop goroutine must return.
	wire.SetFaultHooks(nil)
	cli.Release()
	ep.Detach()
	ln.Close()
	waitGoroutines(t, goroBefore)
}
