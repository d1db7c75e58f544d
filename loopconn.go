package minion

import (
	"errors"
	"io"
	"sync/atomic"

	"minion/internal/buf"
	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/ucobs"
	"minion/internal/utls"
)

// transport is the substrate under a loopConn: the byte stream the
// framing layers ride, hosted on an event loop, with a writable edge, a
// terminal-error hook and a bounded teardown. *wire.Conn (kernel TCP)
// and *utcp.Client / *utcp.Endpoint (userspace uTCP over UDP) implement
// it, each keeping its own substrate's teardown details — close linger,
// socket release, mapping of timeouts onto ErrTimeout — behind it.
type transport interface {
	// Stream is the framing layers' byte stream (loop-confined).
	Stream() tcp.Stream
	// Loop is the event loop the connection runs on; Do waits for fn
	// there and Post queues it, both reporting false once it has shut
	// down.
	Loop() *rt.Loop
	Do(fn func()) bool
	Post(fn func()) bool
	// OnWritable registers the handler for send-buffer-writable edges.
	OnWritable(fn func())
	// OnError registers the handler fired once, on the loop, when the
	// transport reaches its terminal state.
	OnError(fn func(error))
	// Close tears the transport down gracefully, bounded by a linger.
	Close()
	// Abort tears it down at once, with err as the terminal cause.
	Abort(err error)
}

// loopConn adapts a loop-confined framing connection to the
// goroutine-safe public Conn interface, over either transport: every
// call is marshalled onto the connection's event loop (the
// per-connection serial executor), so the protocol state machines stay
// lock-free exactly as they are on the simulator.
type loopConn struct {
	tr    transport
	inner Conn

	// TrySend bookkeeping: asyncBytes meters accepted-but-unsent payload
	// against asyncBudget from any goroutine; asyncQ holds datagrams the
	// transport pushed back on, retried on every writable edge and on
	// handshake completion. asyncQ is loop-confined.
	asyncBudget int64
	asyncBytes  atomic.Int64
	asyncQ      []asyncMsg

	// Loop-confined lifecycle state. closeErr latches why the connection
	// stopped taking datagrams (Close, or its terminal cause); termErr
	// latches the cause OnConnError reports, so a callback registered
	// after the connection died still fires.
	closeErr error
	onError  func(error)
	termErr  error
}

type asyncMsg struct {
	b   *buf.Buffer
	opt Options
}

// newLoopConn stacks the protocol's framing layer on tr. The framing
// connection is built on the transport's event loop, so incoming bytes
// (a peer's uTLS hello can already be queued) never race the
// constructor; setup, when non-nil, runs there too, to wire hooks only
// one transport offers.
func newLoopConn(tr transport, proto Protocol, cfg TCPConfig, isClient bool, setup func(*loopConn)) *loopConn {
	budget := cfg.SendBufBytes
	if budget == 0 {
		budget = 256 * 1024 // the transports' default send buffer
	}
	w := &loopConn{tr: tr, asyncBudget: int64(budget)}
	tr.Do(func() {
		s := tr.Stream()
		if proto.Secure() {
			ucfg := utls.Config{ExplicitRecNum: cfg.ExplicitRecNum, Real: cfg.TLS.handshake()}
			u := utls.Server
			if isClient {
				u = utls.Client
			}
			c := u(s, ucfg)
			// Sends the pre-handshake queue turned away wait in asyncQ, and
			// no transport edge covers them: completion must run the pump.
			c.OnReady(w.flushAsync)
			w.inner = utlsConn{c}
		} else {
			w.inner = ucobsConn{ucobs.New(s)}
		}
		// The retry pump is armed for the connection's lifetime, so no
		// writable edge can fire before it is listening.
		tr.OnWritable(w.flushAsync)
		tr.OnError(w.terminate)
		if setup != nil {
			setup(w)
		}
	})
	return w
}

// terminate runs on the loop when the transport reaches its terminal
// state. Ordinary ends (local or peer close, EOF) collapse to
// ErrConnClosed, matching Close's contract; other causes — typed ones
// such as ErrTimeout, socket errors — pass through. Queued TrySend
// datagrams and the OnConnError observer each learn the cause exactly
// once.
func (w *loopConn) terminate(err error) {
	if err == nil || errors.Is(err, tcp.ErrClosed) || errors.Is(err, io.EOF) {
		err = ErrConnClosed
	}
	if w.closeErr == nil {
		w.closeErr = err
	}
	w.failAsync(err)
	w.reportError(err)
}

func (w *loopConn) Send(msg []byte, opt Options) error {
	var err error
	if !w.tr.Do(func() {
		if err = w.closeErr; err == nil {
			err = w.inner.Send(msg, opt)
		}
	}) {
		return ErrConnClosed
	}
	return err
}

// TrySend implements the non-blocking send of the Conn contract: it
// copies msg, reserves budget, and posts the transmission onto the
// connection's lane, so it is safe from any goroutine — including other
// connections' OnMessage callbacks (the relay pattern the marshalled
// Send cannot serve without risking a two-loop deadlock).
func (w *loopConn) TrySend(msg []byte, opt Options) error {
	n := int64(len(msg))
	if w.asyncBytes.Add(n) > w.asyncBudget {
		w.asyncBytes.Add(-n)
		return ErrWouldBlock
	}
	b := buf.From(msg)
	if !w.tr.Post(func() { w.asyncDeliver(b, opt) }) {
		w.asyncBytes.Add(-n)
		b.Release()
		return ErrConnClosed
	}
	return nil
}

// asyncDeliver runs on the loop: datagrams keep TrySend order, so
// anything behind a queued datagram queues too.
func (w *loopConn) asyncDeliver(b *buf.Buffer, opt Options) {
	m := asyncMsg{b, opt}
	if len(w.asyncQ) > 0 {
		w.asyncQ = append(w.asyncQ, m)
		return
	}
	err := w.closeErr
	if err == nil {
		err = w.inner.Send(b.Bytes(), opt)
		if errors.Is(err, ErrWouldBlock) {
			w.asyncQ = append(w.asyncQ, m)
			return
		}
	}
	// Sent — or a terminal error, in which case the datagram falls
	// exactly like data in flight at Close. Either way its fate is known.
	w.settle(m, err)
}

// flushAsync is the retry pump for queued TrySend datagrams, run on the
// loop on every writable edge and when a uTLS handshake completes.
func (w *loopConn) flushAsync() {
	for len(w.asyncQ) > 0 {
		m := w.asyncQ[0]
		err := w.inner.Send(m.b.Bytes(), m.opt)
		if errors.Is(err, ErrWouldBlock) {
			return // the next writable edge resumes
		}
		// Sent, or a non-retryable error (oversized record, connection
		// closing): either way this datagram leaves the queue — dropping
		// just it, not its successors, keeps a single bad datagram from
		// killing the stream — and its fate is reported.
		w.asyncQ[0] = asyncMsg{}
		w.asyncQ = w.asyncQ[1:]
		w.settle(m, err)
	}
}

// settle returns a finished TrySend datagram's budget and buffer and
// reports its fate. Runs on the loop.
func (w *loopConn) settle(m asyncMsg, err error) {
	w.asyncBytes.Add(-int64(m.b.Len()))
	m.b.Release()
	if m.opt.OnResult != nil {
		m.opt.OnResult(err)
	}
}

// failAsync drops every queued TrySend datagram with err, reporting each
// through its OnResult. The queue is detached first, so a callback that
// closes the connection cannot report a datagram twice. Runs on the
// loop.
func (w *loopConn) failAsync(err error) {
	q := w.asyncQ
	w.asyncQ = nil
	for _, m := range q {
		w.settle(m, err)
	}
}

func (w *loopConn) Recv() (msg []byte, ok bool) {
	w.tr.Do(func() { msg, ok = w.inner.Recv() })
	return
}

func (w *loopConn) OnMessage(fn func(msg []byte)) {
	w.tr.Do(func() {
		w.inner.OnMessage(fn)
		if fn == nil {
			return
		}
		// Unlike the simulator, real-socket bytes flow before the
		// application can possibly register its callback (the peer may
		// send the moment Accept returns), so datagrams queued in that
		// window are flushed through the new callback here — atomically
		// with registration, on the event loop, in arrival order.
		for {
			m, ok := w.inner.Recv()
			if !ok {
				return
			}
			fn(m)
		}
	})
}

func (w *loopConn) Close() { w.tr.Do(w.shut) }

// shut runs Close on the loop: the protocol's close sequence (uTLS
// close_notify, then the stream's FIN), every still-queued TrySend
// datagram reported dropped instead of vanishing, and the transport's
// bounded teardown.
func (w *loopConn) shut() {
	if w.closeErr == nil {
		w.closeErr = ErrConnClosed
	}
	w.inner.Close()
	w.failAsync(ErrConnClosed)
	w.tr.Close()
}

// reportError latches the first terminal cause and delivers it to the
// OnConnError observer exactly once. Runs on the loop (or inline during
// post-loop teardown).
func (w *loopConn) reportError(err error) {
	if w.termErr == nil {
		w.termErr = err
	}
	if w.onError != nil {
		fn := w.onError
		w.onError = nil
		fn(w.termErr)
	}
}

// Inner returns the framing-layer connection for instrumentation; use it
// only on the connection's event loop.
func (w *loopConn) Inner() Conn { return w.inner }

// OnConnError registers fn to run exactly once when c reaches a terminal
// state — peer close, socket error, eviction, or local Close — with the
// same mapped cause TrySend's OnResult reports (ErrConnClosed for
// ordinary closure, typed errors such as ErrTimeout passed through). fn
// runs on the connection's event loop; if the connection is already dead
// at registration, fn fires immediately with the latched cause. This is
// how servers holding many accepted connections (the relay pattern)
// learn a client left without polling. Reports false — and never calls
// fn — when c's substrate has no terminal-error reporting (simulated
// endpoints, UDP shims).
func OnConnError(c Conn, fn func(error)) bool {
	w, ok := c.(*loopConn)
	if !ok {
		return false
	}
	if fn != nil && !w.tr.Do(func() {
		if w.termErr != nil {
			fn(w.termErr)
			return
		}
		w.onError = fn
	}) {
		// Loop already gone: the connection is dead and its terminal
		// error was delivered (or discarded) during teardown.
		fn(ErrConnClosed)
	}
	return true
}

// SupportsPriorities reports whether c's substrate honors
// Options.Priority and Options.Squash on sends. Stock uTLS cannot
// reorder its ciphertext stream — priorities there require the explicit
// record-number extension (TCPConfig.ExplicitRecNum, and both endpoints
// must negotiate it), on uTCP as on kernel TCP — so a prioritized send
// on a stock flow fails with a typed error instead of silently
// corrupting record order. Callers that degrade gracefully (the relay)
// probe once per connection and drop the priority tag when the answer
// is false. For uTLS the answer is settled only once the handshake
// completes; probing from a message callback (any delivered datagram
// implies a finished handshake) is always safe. uCOBS and the simulated
// substrates accept the tag.
func SupportsPriorities(c Conn) bool {
	sup := true
	if w, ok := c.(*loopConn); ok {
		w.tr.Do(func() {
			if u, ok := w.inner.(utlsConn); ok {
				sup = u.c.ExplicitRecNumActive()
			}
		})
	}
	return sup
}
