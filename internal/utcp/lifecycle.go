package utcp

import (
	"errors"
	"sync"
	"time"

	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/wire"
)

// closeLinger bounds a graceful close: a connection whose FIN exchange
// has not finished this long after the local close began is aborted
// (RST), so its socket and loop are always reclaimed.
const closeLinger = 3 * time.Second

// lifecycle is the teardown a Client and an Endpoint share, shaped like
// wire.Conn's so that one upper layer can drive either transport: a
// graceful Close bounded by closeLinger, a hard Abort carrying a typed
// cause, and a terminal-error hook that also releases the connection's
// socket resources.
type lifecycle struct {
	b       *Binding
	loop    *rt.Loop
	release func() // frees the socket (Client) or demux entry (Endpoint)
	freed   sync.Once

	// Loop-confined.
	watched   bool
	lingering bool
	onError   func(error)
	cause     error
}

// Stream returns the connection as the byte stream framing layers ride
// (loop-confined, like the connection itself).
func (l *lifecycle) Stream() tcp.Stream { return l.b.Conn() }

// OnWritable registers fn for the connection's send-buffer-writable
// edges. Must be called on the loop.
func (l *lifecycle) OnWritable(fn func()) { l.b.Conn().OnWritable(fn) }

// OnError registers fn to run once, on the loop, when the connection
// reaches its terminal state. The cause uses the wire layer's vocabulary:
// wire.ErrTimeout for an ARQ timeout, the error an Abort carried, and
// tcp.ErrClosed for any other end. Registering takes over the
// connection's OnClose and OnStateChange hooks: from then on any local
// close is bounded by closeLinger, and the terminal state releases the
// socket (Client) or demux entry (Endpoint). Must be called on the loop.
func (l *lifecycle) OnError(fn func(error)) {
	l.onError = fn
	l.watch()
}

func (l *lifecycle) watch() {
	if l.watched {
		return
	}
	l.watched = true
	tc := l.b.Conn()
	tc.OnStateChange(func(s tcp.State) {
		// A FIN went out, whoever queued it (a framing layer failing its
		// handshake closes the stream itself).
		if s == tcp.StateFinWait1 || s == tcp.StateLastAck {
			l.linger()
		}
	})
	tc.OnClose(func(err error) {
		switch {
		case l.cause != nil:
			err = l.cause
		case errors.Is(err, tcp.ErrTimeout):
			err = wire.ErrTimeout
		default:
			err = tcp.ErrClosed
		}
		if l.onError != nil {
			l.onError(err)
		}
		l.free()
	})
}

// linger arms the close bound, once. Runs on the loop.
func (l *lifecycle) linger() {
	if l.lingering {
		return
	}
	l.lingering = true
	tc := l.b.Conn()
	l.loop.Schedule(closeLinger, func() {
		if tc.State() != tcp.StateClosed {
			tc.Abort()
		}
	})
}

// free releases the socket resources once. Socket teardown joins the
// loop (reader hand-off, drain barriers), so it never runs inline on it.
func (l *lifecycle) free() { l.freed.Do(func() { go l.release() }) }

// Close closes the connection gracefully: the FIN exchange runs, bounded
// by closeLinger, and the terminal state releases the socket (Client) or
// demux entry (Endpoint). Idempotent; safe from any goroutine, including
// the loop.
func (l *lifecycle) Close() {
	l.loop.Do(func() {
		tc := l.b.Conn()
		if tc.State() == tcp.StateClosed {
			l.free()
			return
		}
		l.watch()
		tc.Close()
		l.linger()
	})
}

// Abort resets the connection at once, reporting err (tcp.ErrClosed when
// nil) as the terminal cause. Safe from any goroutine.
func (l *lifecycle) Abort(err error) {
	l.loop.Do(func() {
		if l.cause == nil {
			l.cause = err
		}
		l.b.Conn().Abort()
	})
}
