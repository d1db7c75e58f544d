package utcp

import (
	"net"
	"net/netip"
	"sync"

	"minion/internal/buf"
	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/udp"
	"minion/internal/wire"
)

// ListenerConfig parameterizes a uTCP listener. The zero value is usable.
type ListenerConfig struct {
	// Config is the per-connection uTCP configuration (MSS zero defaults
	// to DefaultMSS, as in Bind).
	Config tcp.Config
	// Backlog bounds endpoints accepted by the demux but not yet taken by
	// Accept (default 64). A SYN arriving with the backlog full is
	// dropped — standard SYN-queue overflow behaviour; the client
	// retransmits.
	Backlog int
	// UDP tunes the shared socket.
	UDP wire.UDPConfig
}

// Listener demuxes one unconnected UDP socket into per-peer uTCP
// endpoints by source address. Every endpoint shares the socket's event
// loop — the single-loop shape is right for tests, experiments, and
// modest fan-in; a per-core LoopGroup accept sharder is future work
// (ROADMAP). State for a peer is created only by a well-formed SYN;
// anything else from an unknown source is dropped without allocation,
// so stray datagrams cannot grow the table.
type Listener struct {
	pc  *wire.UDPPacketConn
	cfg ListenerConfig

	// Loop-confined demux state.
	eps    map[netip.AddrPort]*Endpoint
	closed bool

	backlog   chan *Endpoint
	done      chan struct{}
	closeOnce sync.Once
}

// Endpoint is one accepted peer's connection on the listener's loop.
type Endpoint struct {
	l    *Listener
	peer netip.AddrPort
	shim *udp.Conn
	lifecycle
}

// Listen opens the shared socket and starts demuxing.
func Listen(network, addr string, cfg ListenerConfig) (*Listener, error) {
	if cfg.Backlog == 0 {
		cfg.Backlog = 64
	}
	pc, err := wire.ListenUDPPacket(network, addr, cfg.UDP)
	if err != nil {
		return nil, err
	}
	l := &Listener{
		pc:      pc,
		cfg:     cfg,
		eps:     make(map[netip.AddrPort]*Endpoint),
		backlog: make(chan *Endpoint, cfg.Backlog),
		done:    make(chan struct{}),
	}
	pc.OnPacket(l.input)
	return l, nil
}

// Addr returns the listening socket's address.
func (l *Listener) Addr() net.Addr { return l.pc.LocalAddr() }

// Loop returns the event loop every endpoint runs on.
func (l *Listener) Loop() *rt.Loop { return l.pc.Loop() }

// Accept blocks for the next incoming connection. The endpoint is
// surfaced on SYN arrival — its handshake may still be completing; writes
// queue until it does.
func (l *Listener) Accept() (*Endpoint, error) {
	select {
	case ep := <-l.backlog:
		return ep, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close aborts every live endpoint (RST out the shared socket), stops the
// demux, and releases the socket and loop. Accept unblocks with
// net.ErrClosed.
func (l *Listener) Close() {
	l.closeOnce.Do(func() {
		close(l.done)
		l.pc.Do(func() {
			l.closed = true
			for _, ep := range l.eps {
				ep.b.Conn().Abort()
			}
			l.eps = map[netip.AddrPort]*Endpoint{}
		})
		l.pc.Close()
	})
}

// input routes one datagram. Runs on the loop; owns b.
func (l *Listener) input(b *buf.Buffer, from netip.AddrPort) {
	if l.closed {
		b.Release()
		return
	}
	ep := l.eps[from]
	if ep == nil {
		// Only a clean initial SYN creates per-peer state.
		p := b.Bytes()
		if len(p) < HeaderLen || p[0] != Magic || p[1] != Version ||
			tcp.Flags(p[2]) != tcp.FlagSYN {
			b.Release()
			return
		}
		if len(l.backlog) == cap(l.backlog) {
			// SYN-queue overflow: drop; the client's handshake RTO retries.
			b.Release()
			return
		}
		ep = l.newEndpoint(from)
		l.eps[from] = ep
		l.backlog <- ep // cannot block: the loop is the only producer
	}
	ep.shim.InputBuf(b)
}

// newEndpoint builds a per-peer shim whose output goes back out the
// shared socket to that peer, binds a listening uTCP connection over it,
// and hands it the arriving SYN's processing. Runs on the loop.
func (l *Listener) newEndpoint(from netip.AddrPort) *Endpoint {
	shim := udp.New()
	shim.SetOutput(func(b *buf.Buffer, wireSize int) {
		l.pc.SendTo(b, from)
	})
	ep := &Endpoint{l: l, peer: from, shim: shim}
	ep.lifecycle = lifecycle{b: Bind(l.pc.Loop(), shim, l.cfg.Config), loop: l.pc.Loop(), release: ep.Detach}
	ep.b.Conn().Listen()
	return ep
}

// Conn returns the endpoint's connection (loop-confined).
func (e *Endpoint) Conn() *tcp.Conn { return e.b.Conn() }

// Binding returns the endpoint's codec binding (loop-confined).
func (e *Endpoint) Binding() *Binding { return e.b }

// RemoteAddr returns the peer's address.
func (e *Endpoint) RemoteAddr() netip.AddrPort { return e.peer }

// Loop returns the event loop the endpoint runs on.
func (e *Endpoint) Loop() *rt.Loop { return e.loop }

// Do runs fn on the endpoint's loop (false once the listener closed).
func (e *Endpoint) Do(fn func()) bool { return e.l.pc.Do(fn) }

// Post queues fn on the endpoint's loop without waiting.
func (e *Endpoint) Post(fn func()) bool { return e.l.pc.Post(fn) }

// Detach removes the endpoint from the demux table — call once its
// connection has fully closed, so a reconnecting peer (same source
// address) gets a fresh endpoint instead of RST-shaped confusion. Close
// and OnError detach automatically at the terminal state.
func (e *Endpoint) Detach() {
	e.l.pc.Post(func() {
		if e.l.eps[e.peer] == e {
			delete(e.l.eps, e.peer)
		}
	})
}
