package utcp

import (
	"net"
	"time"

	"minion/internal/rt"
	"minion/internal/tcp"
	"minion/internal/wire"
)

// Client is one dialed uTCP-over-UDP connection: a connected wire.UDPConn
// socket with a Binding hosted on its event loop. The SYN is in flight
// when Dial returns; writes queue until the handshake completes, so
// callers need not wait for Established before layering framing on top.
type Client struct {
	uc *wire.UDPConn
	lifecycle
}

// Dial opens a connected UDP socket to addr and starts a uTCP client
// handshake over it. ucfg.DialTimeout, when positive, bounds the SYN
// exchange too: a peer that never answers aborts the connection with
// wire.ErrTimeout as its terminal cause instead of leaving it to retry
// until the ARQ gives up.
func Dial(network, addr string, cfg tcp.Config, ucfg wire.UDPConfig) (*Client, error) {
	start := time.Now()
	uc, err := wire.DialUDPConfig(network, addr, ucfg)
	if err != nil {
		return nil, err
	}
	c := &Client{uc: uc, lifecycle: lifecycle{loop: uc.Loop(), release: uc.Close}}
	if !uc.Do(func() {
		c.b = Bind(uc.Loop(), uc.Shim(), cfg)
		c.b.Conn().Connect()
	}) {
		uc.Close()
		return nil, net.ErrClosed
	}
	if ucfg.DialTimeout > 0 {
		c.loop.Schedule(ucfg.DialTimeout-time.Since(start), func() {
			if c.b.Conn().State() == tcp.StateSynSent {
				c.Abort(wire.ErrTimeout)
			}
		})
	}
	return c, nil
}

// Conn returns the connection (touch it only via Do/Post).
func (c *Client) Conn() *tcp.Conn { return c.b.Conn() }

// Binding returns the codec binding (loop-confined, like the Conn).
func (c *Client) Binding() *Binding { return c.b }

// Loop returns the event loop hosting the connection.
func (c *Client) Loop() *rt.Loop { return c.loop }

// Do runs fn on the connection's event loop (false once closed).
func (c *Client) Do(fn func()) bool { return c.uc.Do(fn) }

// Post queues fn on the connection's event loop without waiting.
func (c *Client) Post(fn func()) bool { return c.uc.Post(fn) }

// LocalAddr returns the socket's local address.
func (c *Client) LocalAddr() net.Addr { return c.uc.LocalAddr() }

// Release tears the socket and loop down immediately, whatever state the
// connection is in — the counterpart of Close for callers that drive the
// connection's own teardown through Conn().
func (c *Client) Release() { c.uc.Close() }
