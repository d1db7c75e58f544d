package minion

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"minion/internal/tcp"
	"minion/internal/utcp"
	"minion/internal/wire"
)

// ErrSimOnly is returned by Dial/Listen for the uTCP protocol stacks on
// "tcp" networks: kernel TCP cannot deliver out of order, and no shipping
// OS has the uTCP extensions (paper §4/§7). On "udp" networks the same
// stacks work — userspace uTCP carried datagram-per-segment over a UDP
// socket (see utcp_wire.go and NegotiateTransport).
var ErrSimOnly = fmt.Errorf("minion: protocol requires uTCP kernel support (simulated substrate only)")

// ErrTimeout is the typed error a real-socket connection reports when a
// configured deadline expires: DialConfig.Timeout on establishment,
// TCPConfig.ReadIdleTimeout on a silent peer, TCPConfig.WriteStallTimeout
// on a peer that stopped reading, or a LoopGroup.Shutdown context cutting
// a drain short. Compare with errors.Is; it also satisfies net.Error with
// Timeout() == true.
var ErrTimeout = wire.ErrTimeout

// ErrSlowClient reports — through Options.OnResult — a queued datagram
// shed by EvictShed when its connection stalled past
// TCPConfig.WriteStallTimeout.
var ErrSlowClient = errors.New("minion: datagram shed on write-stalled connection")

// EvictPolicy selects what happens to a real-socket connection whose
// queued send bytes make no progress for TCPConfig.WriteStallTimeout.
type EvictPolicy int

const (
	// EvictClose closes the stalled connection with ErrTimeout — the
	// default: a peer that stopped reading is holding pooled buffers
	// hostage, and every datagram still queued reports through OnResult.
	EvictClose EvictPolicy = iota
	// EvictShed sheds first: each time the stall deadline passes, the
	// lowest-priority class of queued TrySend datagrams (the highest
	// numeric Options.Priority present) is dropped and reported with
	// ErrSlowClient, keeping the connection alive for higher-priority
	// traffic — the paper's priority semantics applied to overload. When
	// nothing sheddable remains, the policy escalates to EvictClose.
	// Bytes already framed into the transport queue are never shed (a
	// TLS stream cannot skip a record mid-sequence); only whole queued
	// datagrams are.
	EvictShed
)

func (p EvictPolicy) stallPolicy() wire.StallPolicy {
	if p == EvictShed {
		return wire.StallShed
	}
	return wire.StallEvict
}

// LoopMode selects how a LoopGroup's event loops move bytes between
// sockets and protocol state.
type LoopMode int

const (
	// LoopAuto picks the platform's best mode: readiness-driven polling
	// where the kernel supports it (Linux), shared writers elsewhere.
	LoopAuto LoopMode = iota
	// LoopShared is the rotating shared-writer shape: one blocking reader
	// goroutine per connection, one writer per loop servicing dirty
	// connections in 20 ms fairness slices.
	LoopShared
	// LoopPoll is the readiness-driven shape: an epoll poller per loop,
	// zero goroutines per connection, stalled peers parked until the
	// kernel reports writability. Falls back to LoopShared where
	// unsupported.
	LoopPoll
)

func (m LoopMode) wireMode() wire.Mode {
	switch m {
	case LoopShared:
		return wire.ModeShared
	case LoopPoll:
		return wire.ModePoll
	default:
		return wire.DefaultMode()
	}
}

// LoopGroup is a shared event-loop runtime for real-socket connections:
// a loop per core (by default), each multiplexing many connections while
// preserving per-connection callback ordering. Attach connections via
// DialConfig.Group / ListenConfig.Group; a connection then costs zero
// goroutines (poll mode) or one (its socket reader, shared mode) instead
// of three.
//
// Close stops the group once the last attached connection closes;
// connections attached at Close time keep running until then.
type LoopGroup struct{ g *wire.Group }

// NewLoopGroup starts loops event loops in the platform's default mode
// (LoopAuto: poll on Linux); loops <= 0 means GOMAXPROCS, the
// loop-per-core default.
func NewLoopGroup(loops int) *LoopGroup { return &LoopGroup{g: wire.NewGroup(loops)} }

// NewLoopGroupMode starts loops event loops in an explicit mode — the
// knob benchmarks and A/B comparisons use; production code normally
// wants NewLoopGroup's platform default.
func NewLoopGroupMode(loops int, mode LoopMode) *LoopGroup {
	return &LoopGroup{g: wire.NewGroupMode(loops, mode.wireMode())}
}

// Mode reports the mode the group actually runs, after any platform
// fallback: "poll" or "shared".
func (g *LoopGroup) Mode() string { return g.g.Mode().String() }

// Len returns the number of loops.
func (g *LoopGroup) Len() int { return g.g.Len() }

// Loads returns per-loop attached-connection counts — the observable
// accept-loadbalance state.
func (g *LoopGroup) Loads() []int { return g.g.Loads() }

// Close marks the group done; loops shut down when the last attached
// connection detaches.
func (g *LoopGroup) Close() { g.g.Close() }

// DrainStats reports what a graceful LoopGroup.Shutdown accomplished.
type DrainStats struct {
	// Conns is the number of attached connections the drain covered.
	Conns int
	// Flushed counts connections whose queued writes reached the kernel
	// (and whose close sequence — uTLS close_notify, TCP FIN — was sent)
	// before the context expired.
	Flushed int
	// Aborted counts connections cut short by the context deadline; their
	// remaining datagrams were reported through OnResult with ErrTimeout.
	Aborted int
	// PerLoop is the per-loop connection count at drain start, index-
	// aligned with Loads().
	PerLoop []int
}

// Shutdown drains the group gracefully: it stops tracking new
// connections, flushes every attached connection's queued writes, sends
// each protocol's close sequence (uTLS close_notify, then FIN), and
// closes the sockets. Connections that cannot finish before ctx expires
// are aborted with ErrTimeout — their undelivered datagrams report
// through OnResult. Callers should close their Listeners first so no new
// connections race the drain. Must not be called from a connection
// callback (it waits on the loops it would be running on).
func (g *LoopGroup) Shutdown(ctx context.Context) DrainStats {
	st := g.g.Shutdown(ctx)
	return DrainStats{
		Conns:   st.Conns,
		Flushed: st.Flushed,
		Aborted: st.Aborted,
		PerLoop: st.PerLoop,
	}
}

// defaultGroup is the process-wide LoopGroup used by DialConfig{Loops: n}
// when no explicit Group is supplied, sized loop-per-core at first use.
var defaultGroup struct {
	once sync.Once
	g    *wire.Group
}

func processGroup() *wire.Group {
	defaultGroup.once.Do(func() { defaultGroup.g = wire.NewGroup(0) })
	return defaultGroup.g
}

// DialConfig parameterizes outbound real-socket connections.
//
// The zero value dials exactly like Dial: a dedicated event loop (plus
// reader and writer goroutines) per connection. Set Group to attach to a
// shared LoopGroup, or set Loops != 0 (without a Group) to attach to the
// process-wide loop-per-core group — the configuration for clients that
// open thousands of connections.
type DialConfig struct {
	TCPConfig
	// Loops != 0 (with Group nil) selects the process-wide shared group.
	Loops int
	// Group attaches the connection to an explicit shared LoopGroup.
	Group *LoopGroup
	// Timeout bounds connection establishment end to end: name
	// resolution, the transport's own handshake (TCP connect on "tcp"
	// networks, the uTCP SYN exchange on "udp" networks), plus, on the
	// uTLS stacks (ProtoUTLSTCP and ProtoUTLSuTCP), the TLS handshake.
	// Zero — the default — means no bound, preserving the historical
	// behavior that a Dial can wait as long as the kernel does. A connect
	// that times out returns an error wrapping ErrTimeout; a handshake
	// that times out aborts the connection with ErrTimeout, which
	// surfaces through Send/OnResult and the connection's error paths.
	Timeout time.Duration
	// Retry re-attempts transient dial failures with exponential
	// backoff. The zero value (Attempts <= 1) preserves single-shot
	// dialing exactly. With Attempts > 1 a uTLS dial, over kernel TCP or
	// uTCP, additionally waits for the handshake to settle before
	// returning, so handshake failures are retried too, and success means
	// a ready connection.
	Retry RetryConfig
}

// RetryConfig shapes DialConfig's retry loop. Every attempt's failure is
// treated as transient — connect refusals, resets, timeouts, and uTLS
// handshake failures all retry; configuration errors (unknown protocol,
// ErrSimOnly) never reach the loop. When the attempts are exhausted the
// dial returns a *DialRetryError wrapping the last attempt's error.
type RetryConfig struct {
	// Attempts is the total attempt count, first try included; 0 or 1
	// disables retrying.
	Attempts int
	// BaseBackoff is the sleep before the second attempt; each later
	// attempt doubles it. Default 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the doubled backoff. Default 1s.
	MaxBackoff time.Duration
	// Jitter, in [0, 1], adds up to that fraction of each backoff as a
	// uniformly random extra sleep — desynchronizing a thundering herd
	// of reconnecting clients. 0 keeps the backoff deterministic.
	Jitter float64
}

// DialRetryError is the typed give-up error a retrying dial returns once
// every attempt has failed. It wraps the final attempt's error, so
// errors.Is/As reach the underlying cause.
type DialRetryError struct {
	Attempts int   // attempts made
	Last     error // the final attempt's error
}

func (e *DialRetryError) Error() string {
	return fmt.Sprintf("minion: dial failed after %d attempts: %v", e.Attempts, e.Last)
}

func (e *DialRetryError) Unwrap() error { return e.Last }

// ListenConfig parameterizes accepted real-socket connections.
//
// The zero value behaves like Listen: a dedicated loop per accepted
// connection. Loops != 0 gives the listener its own shared group of that
// many loops (< 0 means GOMAXPROCS) and accepted connections are spread
// across them least-loaded; Group uses an externally owned group instead.
type ListenConfig struct {
	TCPConfig
	// Loops sizes a listener-owned shared group (< 0: GOMAXPROCS;
	// 0: dedicated loops per connection unless Group is set).
	Loops int
	// Mode selects the listener-owned group's I/O shape (LoopAuto picks
	// the platform default). Ignored when Group is set — an external
	// group carries its own mode.
	Mode LoopMode
	// Group, when non-nil, overrides Loops with an external group whose
	// lifecycle the caller owns.
	Group *LoopGroup
	// Backlog is the listen(2) backlog (default 4096, clamped by the
	// kernel's somaxconn) — sized for accept bursts at c10k+, where the
	// stock default drops SYNs.
	Backlog int
}

func (dc DialConfig) group() *wire.Group {
	switch {
	case dc.Group != nil:
		return dc.Group.g
	case dc.Loops != 0:
		return processGroup()
	default:
		return nil
	}
}

// Dial connects a Minion endpoint over a real kernel socket: uCOBS or
// uTLS framing on a TCP connection ("tcp" networks), or the trivial shim
// on a connected UDP socket (ProtoUDP + "udp" networks). The returned
// Conn is safe for use from any goroutine; OnMessage callbacks run on the
// connection's event loop, one at a time.
//
// The stream's bytes are wire-identical to TCP (uCOBS) or TLS (uTLS), so
// middleboxes see nothing unusual — the paper's deployability story on a
// real network. Kernel TCP cannot deliver out of order, so the framing
// layers run their in-order receive paths; the uTCP protocol variants
// return ErrSimOnly on "tcp" networks and ride userspace uTCP on "udp"
// networks (see utcp_wire.go), behind the same Conn.
//
// Re-entrancy: calls on the SAME connection from inside its OnMessage
// callback (the echo pattern) run inline and are always safe. Calling
// Send/Recv on a DIFFERENT wire connection from a callback blocks on that
// connection's event loop — two connections relaying into each other
// from their callbacks can therefore deadlock. Relays use TrySend, which
// never blocks on the loop and keeps relay order.
func Dial(proto Protocol, network, addr string, cfg TCPConfig) (Conn, error) {
	return DialConfig{TCPConfig: cfg}.Dial(proto, network, addr)
}

// Dial connects with this configuration; see the package Dial for the
// protocol semantics. With Retry.Attempts > 1 transient failures are
// re-attempted under exponential backoff, and a uTLS dial returns only
// once its handshake has settled.
func (dc DialConfig) Dial(proto Protocol, network, addr string) (Conn, error) {
	switch proto {
	case ProtoUDP, ProtoUCOBSTCP, ProtoUTLSTCP:
	case ProtoUCOBSuTCP, ProtoUTLSuTCP:
		if !udpNetwork(network) {
			return nil, ErrSimOnly
		}
	default:
		return nil, fmt.Errorf("minion: unknown protocol %v", proto)
	}
	if dc.Retry.Attempts <= 1 {
		return dc.dialOnce(proto, network, addr)
	}
	r := dc.Retry
	if r.BaseBackoff <= 0 {
		r.BaseBackoff = 50 * time.Millisecond
	}
	if r.MaxBackoff <= 0 {
		r.MaxBackoff = time.Second
	}
	backoff := r.BaseBackoff
	var last error
	for i := 0; i < r.Attempts; i++ {
		if i > 0 {
			d := backoff
			if r.Jitter > 0 {
				d += time.Duration(float64(d) * r.Jitter * rand.Float64())
			}
			time.Sleep(d)
			backoff *= 2
			if backoff > r.MaxBackoff {
				backoff = r.MaxBackoff
			}
		}
		c, err := dc.dialOnce(proto, network, addr)
		if err == nil {
			c, err = awaitHandshake(proto, c)
			if err == nil {
				return c, nil
			}
		}
		last = err
	}
	return nil, &DialRetryError{Attempts: r.Attempts, Last: last}
}

// awaitHandshake blocks a retrying uTLS dial until the handshake
// settles: the retry loop has to classify handshake failures, which are
// otherwise reported asynchronously through the connection's error
// paths. Other protocols pass through untouched. On failure the
// connection is closed and the handshake (or terminal) error returned.
func awaitHandshake(proto Protocol, c Conn) (Conn, error) {
	if !proto.Secure() {
		return c, nil
	}
	w := c.(*loopConn)
	hs := make(chan error, 2)
	w.tr.Do(func() {
		u := w.inner.(utlsConn)
		switch {
		case u.c.Ready():
			hs <- nil
		case u.c.HandshakeErr() != nil:
			hs <- u.c.HandshakeErr()
		default:
			// This takes the adapter's OnReady slot, so it runs the
			// TrySend pump that hook would have.
			u.c.OnReady(func() {
				w.flushAsync()
				hs <- nil
			})
		}
	})
	// The terminal-error hook runs on the loop (or inline once the loop
	// is gone), where reading the handshake error is safe; it upgrades
	// the generic mapped cause to the specific handshake failure.
	OnConnError(c, func(err error) {
		if u, ok := w.inner.(utlsConn); ok {
			if herr := u.c.HandshakeErr(); herr != nil {
				err = herr
			}
		}
		hs <- err
	})
	if err := <-hs; err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dialOnce is a single dial attempt; Dial has vetted proto and network.
func (dc DialConfig) dialOnce(proto Protocol, network, addr string) (Conn, error) {
	start := time.Now()
	var w *loopConn
	switch proto {
	case ProtoUDP:
		// The UDP shim is loop-cheap already (no writer goroutine); it
		// keeps a dedicated loop regardless of group settings. The kernel
		// buffer knobs apply — UDP drops silently once its socket queue
		// fills, so sizing matters more here than on TCP.
		uc, err := wire.DialUDPConfig(network, addr, dc.udpConfig())
		if err != nil {
			return nil, err
		}
		return wireUDPConn{uc}, nil
	case ProtoUCOBSTCP, ProtoUTLSTCP:
		wcfg := dc.TCPConfig.wireConfig()
		wcfg.Group = dc.group()
		wcfg.DialTimeout = dc.Timeout
		sc, err := wire.Dial(network, addr, wcfg)
		if err != nil {
			return nil, err
		}
		w = newTCPConn(sc, proto, dc.TCPConfig, true)
	default:
		// Userspace uTCP over a connected UDP socket; utcp.Dial bounds the
		// SYN exchange with the same timeout.
		cli, err := utcp.Dial(network, addr, dc.TCPConfig.tcpConfig(true), dc.udpConfig())
		if err != nil {
			return nil, err
		}
		w = newLoopConn(cli, proto, dc.TCPConfig, true, nil)
	}
	if dc.Timeout > 0 && proto.Secure() {
		// Establishment spent part of the budget; the handshake gets the
		// rest. The timer rides the connection's loop wheel and aborts
		// with the typed ErrTimeout only if the handshake is still in
		// flight when it fires — a completed or already-failed handshake
		// makes it a no-op.
		w.tr.Loop().Schedule(max(dc.Timeout-time.Since(start), time.Millisecond), func() {
			if u, ok := w.inner.(utlsConn); ok && !u.c.Ready() && u.c.HandshakeErr() == nil {
				w.tr.Abort(ErrTimeout)
			}
		})
	}
	return w, nil
}

func (dc DialConfig) udpConfig() wire.UDPConfig {
	return wire.UDPConfig{
		SockSendBufBytes: dc.SockSendBufBytes,
		SockRecvBufBytes: dc.SockRecvBufBytes,
		DialTimeout:      dc.Timeout,
	}
}

// Listener accepts Minion connections of one protocol stack over real
// sockets: TCP streams for the kernel-TCP stacks, or one shared UDP
// socket demuxed into userspace uTCP connections for the uTCP stacks.
type Listener struct {
	ln    *wire.Listener
	uln   *utcp.Listener // uTCP-over-UDP mode (ln nil)
	proto Protocol
	cfg   TCPConfig
	owned *wire.Group // listener-owned shared group (ListenConfig.Loops)
}

// Listen announces on addr for the given TCP-family protocol stack with
// dedicated per-connection loops; use ListenConfig.Listen for the
// shared-loop mode.
func Listen(proto Protocol, network, addr string, cfg TCPConfig) (*Listener, error) {
	return ListenConfig{TCPConfig: cfg}.Listen(proto, network, addr)
}

// Listen announces on addr with this configuration.
func (lc ListenConfig) Listen(proto Protocol, network, addr string) (*Listener, error) {
	switch proto {
	case ProtoUCOBSTCP, ProtoUTLSTCP:
	case ProtoUCOBSuTCP, ProtoUTLSuTCP:
		if !udpNetwork(network) {
			return nil, ErrSimOnly
		}
		// Userspace uTCP: one shared UDP socket, demuxed per peer. The
		// listener owns the socket, so — unlike the TCP listeners — closing
		// it also tears down the connections accepted from it. Loops/Group
		// are ignored: every endpoint shares the socket's event loop.
		uln, err := utcp.Listen(network, addr, utcp.ListenerConfig{
			Config:  lc.TCPConfig.tcpConfig(true),
			Backlog: lc.Backlog,
			UDP: wire.UDPConfig{
				SockSendBufBytes: lc.SockSendBufBytes,
				SockRecvBufBytes: lc.SockRecvBufBytes,
			},
		})
		if err != nil {
			return nil, err
		}
		return &Listener{uln: uln, proto: proto, cfg: lc.TCPConfig}, nil
	case ProtoUDP:
		return nil, fmt.Errorf("minion: Listen does not support UDP; use DialUDP on both peers")
	default:
		return nil, fmt.Errorf("minion: unknown protocol %v", proto)
	}
	wcfg := lc.TCPConfig.wireConfig()
	wcfg.Backlog = lc.Backlog
	var owned *wire.Group
	switch {
	case lc.Group != nil:
		wcfg.Group = lc.Group.g
	case lc.Loops != 0:
		owned = wire.NewGroupMode(lc.Loops, lc.Mode.wireMode())
		wcfg.Group = owned
	}
	ln, err := wire.Listen(network, addr, wcfg)
	if err != nil {
		if owned != nil {
			owned.Close()
		}
		return nil, err
	}
	return &Listener{ln: ln, proto: proto, cfg: lc.TCPConfig, owned: owned}, nil
}

// Accept waits for and returns the next connection.
func (l *Listener) Accept() (Conn, error) {
	if l.uln != nil {
		ep, err := l.uln.Accept()
		if err != nil {
			return nil, err
		}
		return newLoopConn(ep, l.proto, l.cfg, false, nil), nil
	}
	sc, err := l.ln.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(sc, l.proto, l.cfg, false), nil
}

// Addr returns the bound listening address.
func (l *Listener) Addr() net.Addr {
	if l.uln != nil {
		return l.uln.Addr()
	}
	return l.ln.Addr()
}

// Sharded reports whether the listener runs the SO_REUSEPORT-sharded
// accept path: one listening socket per group loop, with the kernel
// distributing incoming connections across them and each connection
// pinned to the loop that accepted it. Engages automatically for
// poll-mode groups on Linux; false means the single-socket least-loaded
// shape (uTCP listeners always answer false — one shared socket).
func (l *Listener) Sharded() bool { return l.ln != nil && l.ln.Sharded() }

// ShardAccepts returns per-loop accepted-connection counts for a sharded
// listener (nil otherwise) — the observable kernel accept distribution,
// index-aligned with the group's loops.
func (l *Listener) ShardAccepts() []uint64 {
	if l.ln == nil {
		return nil
	}
	return l.ln.ShardAccepts()
}

// Drain stops the listener gracefully: it stops accepting, tears down the
// accept machinery (for a sharded listener that means unwinding one epoll
// registration per loop), and waits for the teardown to complete or ctx
// to expire — in which case the teardown finishes in the background and
// ctx.Err() is returned. Established connections are unaffected; drain
// them with LoopGroup.Shutdown afterwards.
func (l *Listener) Drain(ctx context.Context) error {
	if l.uln != nil {
		l.uln.Close()
		return nil
	}
	err := l.ln.Drain(ctx)
	if l.owned != nil {
		l.owned.Close()
	}
	return err
}

// Close stops the listener. For the TCP stacks established connections
// are unaffected: a listener-owned loop group keeps running until the
// last of its connections closes. A uTCP listener owns the shared UDP
// socket its connections ride, so closing it aborts them too — drain the
// connections first for a graceful exit.
func (l *Listener) Close() error {
	if l.uln != nil {
		l.uln.Close()
		return nil
	}
	err := l.ln.Close()
	if l.owned != nil {
		l.owned.Close()
	}
	return err
}

// DialUDP is shorthand for Dial(ProtoUDP, network, addr, TCPConfig{}).
func DialUDP(network, addr string) (Conn, error) {
	return Dial(ProtoUDP, network, addr, TCPConfig{})
}

func (cfg TCPConfig) wireConfig() wire.Config {
	return wire.Config{
		SendBufBytes:      cfg.SendBufBytes,
		RecvBufBytes:      cfg.RecvBufBytes,
		NoDelay:           cfg.NoDelay,
		SockSendBufBytes:  cfg.SockSendBufBytes,
		SockRecvBufBytes:  cfg.SockRecvBufBytes,
		ReadIdleTimeout:   cfg.ReadIdleTimeout,
		WriteStallTimeout: cfg.WriteStallTimeout,
		StallPolicy:       cfg.Evict.stallPolicy(),
		KeepAlive:         cfg.KeepAlive,
		Governor:          cfg.Governor,
	}
}

// newTCPConn is newLoopConn over kernel TCP, plus the hooks only the
// wire layer offers: a peer FIN reported to OnConnError, graceful drain
// at group shutdown, and EvictShed's stall shedding.
func newTCPConn(sc *wire.Conn, proto Protocol, cfg TCPConfig, isClient bool) *loopConn {
	return newLoopConn(sc, proto, cfg, isClient, func(w *loopConn) {
		// A graceful peer FIN is a departure, not an error, but it is
		// terminal for OnConnError observers (servers reaping clients);
		// the send side stays usable for half-close protocols.
		sc.OnEOF(func() { w.reportError(ErrConnClosed) })
		sc.OnDrain(w.drain)
		if cfg.Evict == EvictShed {
			sc.OnStall(w.shedLowest)
		}
	})
}

// drain runs on the loop when the group begins a graceful shutdown: it
// pushes whatever queued TrySend datagrams still fit into the transport
// (so the wire layer can flush them), then closes — the protocol's close
// sequence, and a report for any datagram that did not make it. The wire
// layer then waits — bounded by the Shutdown context — for the flushed
// bytes to reach the kernel before closing the socket.
func (w *loopConn) drain() {
	w.flushAsync()
	w.shut()
}

// shedLowest implements EvictShed, on the loop: drop the lowest-priority
// class of queued TrySend datagrams (the highest numeric Options.Priority
// present), report each through OnResult with ErrSlowClient, and return
// the payload bytes freed. Returning 0 (nothing sheddable) tells the wire
// layer to escalate to eviction. Only never-framed datagrams are shed —
// bytes already in the transport queue may sit mid-TLS-record and cannot
// be skipped.
func (w *loopConn) shedLowest() int {
	if len(w.asyncQ) == 0 {
		return 0
	}
	worst := w.asyncQ[0].opt.Priority
	for _, m := range w.asyncQ[1:] {
		worst = max(worst, m.opt.Priority)
	}
	freed, kept := 0, w.asyncQ[:0]
	for _, m := range w.asyncQ {
		if m.opt.Priority != worst {
			kept = append(kept, m)
			continue
		}
		freed += m.b.Len()
		w.settle(m, ErrSlowClient)
	}
	clear(w.asyncQ[len(kept):])
	w.asyncQ = kept
	return freed
}

// ErrConnClosed is returned by operations on a closed wire connection.
var ErrConnClosed = fmt.Errorf("minion: connection closed")

// ErrWouldBlock is the retryable backpressure error: Send's framed record
// did not fit the transport's send buffer right now. It is the same
// sentinel value the transports return (errors.Is-comparable through any
// wrapping), exported here so external users of the module can
// distinguish "retry later" from a fatal error.
var ErrWouldBlock = tcp.ErrWouldBlock

// wireUDPConn adapts the real-socket UDP shim to the Minion interface.
type wireUDPConn struct{ c *wire.UDPConn }

func (u wireUDPConn) Send(msg []byte, opt Options) error {
	// Like the simulated shim: no send queue, priority and squash are
	// meaningless but harmless.
	return u.c.Send(msg)
}
func (u wireUDPConn) TrySend(msg []byte, opt Options) error {
	switch err := u.c.TrySendResult(msg, opt.OnResult); {
	case err == nil:
		return nil
	case errors.Is(err, ErrWouldBlock):
		return ErrWouldBlock
	default:
		return ErrConnClosed
	}
}
func (u wireUDPConn) Recv() ([]byte, bool)      { return u.c.Recv() }
func (u wireUDPConn) OnMessage(fn func([]byte)) { u.c.OnMessage(fn) }
func (u wireUDPConn) Close()                    { u.c.Close() }
