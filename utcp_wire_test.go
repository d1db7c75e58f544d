package minion

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"minion/internal/wire"
)

// TestUTCPDialListenEcho runs the full public path: ProtoUCOBSuTCP over a
// real loopback UDP socket, datagrams echoed back through TrySend (the
// relay pattern), graceful close.
func TestUTCPDialListenEcho(t *testing.T) {
	cli, srv := socketPair(t, ProtoUCOBSuTCP, TCPConfig{NoDelay: true})

	srv.OnMessage(func(msg []byte) {
		if err := srv.TrySend(msg, Options{}); err != nil {
			t.Errorf("echo TrySend: %v", err)
		}
	})

	const n = 100
	got := make(chan uint32, n)
	cli.OnMessage(func(msg []byte) {
		if len(msg) >= 4 {
			got <- binary.BigEndian.Uint32(msg)
		}
	})
	msg := make([]byte, 512)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint32(msg, uint32(i))
		if err := cli.Send(msg, Options{}); err != nil {
			t.Fatalf("Send %d: %v", i, err)
		}
	}

	seen := make(map[uint32]bool, n)
	timeout := time.After(30 * time.Second)
	for len(seen) < n {
		select {
		case id := <-got:
			seen[id] = true
		case <-timeout:
			t.Fatalf("echoed %d/%d datagrams", len(seen), n)
		}
	}
}

// TestUTCPPublicUnorderedUnderLoss asserts the paper's core property
// end-to-end through the public API: under injected datagram loss a
// ProtoUCOBSuTCP flow delivers every datagram (reliable) but not in send
// order (unordered), and a high-priority datagram queued behind a bulk
// backlog arrives well before the backlog's tail.
func TestUTCPPublicUnorderedUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("loss-schedule test skipped in -short")
	}
	cli, srv := socketPair(t, ProtoUCOBSuTCP, TCPConfig{NoDelay: true})

	const (
		bulkN  = 200
		msgLen = 1000
		hiID   = uint32(bulkN)
	)
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	wire.SetFaultHooks(&wire.FaultHooks{Write: func(size int) (int, error) {
		mu.Lock()
		drop := rng.Float64() < 0.08
		mu.Unlock()
		if drop {
			return 0, syscall.ECONNREFUSED
		}
		return 0, nil
	}})
	defer wire.SetFaultHooks(nil)

	type arrival struct{ id, rank uint32 }
	arrivals := make(chan arrival, bulkN+1)
	var rank atomic.Uint32
	srv.OnMessage(func(msg []byte) {
		if len(msg) >= 4 {
			arrivals <- arrival{binary.BigEndian.Uint32(msg), rank.Add(1) - 1}
		}
	})

	// Queue the bulk backlog and then one high-priority datagram; TrySend
	// preserves acceptance order into the transport, where the priority
	// tag inserts the last datagram ahead of the untransmitted backlog.
	msg := make([]byte, msgLen)
	for i := uint32(0); i <= bulkN; i++ {
		binary.BigEndian.PutUint32(msg, i)
		opt := Options{Priority: 1}
		if i == hiID {
			opt.Priority = 0
		}
		for {
			err := cli.TrySend(msg, opt)
			if err == nil {
				break
			}
			if err != ErrWouldBlock {
				t.Fatalf("TrySend %d: %v", i, err)
			}
			time.Sleep(time.Millisecond)
		}
	}

	seen := make(map[uint32]uint32, bulkN+1)
	timeout := time.After(60 * time.Second)
	for len(seen) <= bulkN {
		select {
		case a := <-arrivals:
			seen[a.id] = a.rank
		case <-timeout:
			t.Fatalf("delivered %d/%d datagrams", len(seen), bulkN+1)
		}
	}

	// Unordered: arrival ranks of the bulk ids must not be monotone.
	inversions := 0
	prev := int64(-1)
	for i := uint32(0); i < bulkN; i++ {
		r := int64(seen[i])
		if r < prev {
			inversions++
		}
		if r > prev {
			prev = r
		}
	}
	if inversions == 0 {
		t.Error("no out-of-order arrivals under 8% loss — HOL blocking suspected")
	}
	// Priority: queued last, delivered within the first half.
	if r := seen[hiID]; r > bulkN/2 {
		t.Errorf("high-priority datagram arrived at rank %d of %d", r, bulkN+1)
	}
}

// TestUTLSOverUTCPWire runs the encrypted stack over userspace uTCP on a
// real socket: compat handshake with the explicit record-number extension
// (the configuration that decrypts out of order), bidirectional exchange.
func TestUTLSOverUTCPWire(t *testing.T) {
	cli, srv := socketPair(t, ProtoUTLSuTCP, TCPConfig{NoDelay: true, ExplicitRecNum: true})

	srv.OnMessage(func(msg []byte) {
		if err := srv.TrySend(msg, Options{}); err != nil {
			t.Errorf("echo TrySend: %v", err)
		}
	})
	got := make(chan []byte, 16)
	cli.OnMessage(func(msg []byte) { got <- append([]byte(nil), msg...) })

	payload := []byte("unordered ciphertext, square peg, round pipe")
	if err := cli.Send(payload, Options{}); err != nil {
		t.Fatalf("Send: %v", err)
	}
	select {
	case m := <-got:
		if string(m) != string(payload) {
			t.Fatalf("echo mismatch: %q", m)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("echo did not arrive")
	}
	if !SupportsPriorities(cli) {
		t.Error("explicit-recnum uTLS over uTCP should support priorities")
	}
}

// TestNegotiateTransport pins the deployable protocol selection: uTCP
// stacks ride UDP where the path allows, degrade to kernel-TCP siblings
// where it does not, and Negotiate's own answers are never contradicted
// on paths without uTCP peers.
func TestNegotiateTransport(t *testing.T) {
	cases := []struct {
		name  string
		prefs Preferences
		path  PathConstraints
		proto Protocol
		tr    Transport
	}{
		{"open path, utcp peer", Preferences{},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUCOBSuTCP, TransportUDP},
		{"secure wanted, utcp peer", Preferences{RequireSecure: true},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUTLSuTCP, TransportUDP},
		{"raw udp preferred", Preferences{PreferUnordered: true},
			PathConstraints{PeerSupportsUTCP: true}, ProtoUDP, TransportUDP},
		{"udp blocked degrades", Preferences{},
			PathConstraints{UDPBlocked: true, PeerSupportsUTCP: true}, ProtoUCOBSTCP, TransportTCP},
		{"443-only degrades to utls/tcp", Preferences{},
			PathConstraints{TCPOnly443: true, PeerSupportsUTCP: true}, ProtoUTLSTCP, TransportTCP},
		{"dpi forces genuine tls", Preferences{},
			PathConstraints{DPIValidatesHandshake: true, PeerSupportsUTCP: true}, ProtoUTLSTCP, TransportTCP},
		{"no utcp peer", Preferences{},
			PathConstraints{}, ProtoUCOBSTCP, TransportTCP},
		{"no utcp peer, secure", Preferences{RequireSecure: true},
			PathConstraints{}, ProtoUTLSTCP, TransportTCP},
	}
	for _, c := range cases {
		p, tr := NegotiateTransport(c.prefs, c.path)
		if p != c.proto || tr != c.tr {
			t.Errorf("%s: got (%v, %v), want (%v, %v)", c.name, p, tr, c.proto, c.tr)
		}
	}
	if TransportUDP.Network() != "udp" || TransportTCP.Network() != "tcp" {
		t.Error("Transport.Network mapping broken")
	}
}
