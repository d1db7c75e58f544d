// Package wire runs Minion's framing layers over real kernel sockets.
//
// The deterministic simulator (internal/sim + internal/netem) remains the
// substrate for experiments and protocol tests; wire is the deployable
// counterpart: Conn implements tcp.Stream over a net.Conn TCP socket, so
// the existing uCOBS and uTLS layers — unchanged — produce byte streams on
// real networks that are wire-identical to TCP and TLS (the paper's whole
// deployability argument, §3/§5/§6; with the genuine TLS 1.2 handshake,
// utls.Config.Real, a stock crypto/tls peer on the other end of the
// socket completes the handshake — the interop tests drive exactly that).
// Kernel TCP has no SO_UNORDERED, so wire streams report
// Unordered() == false and the framing layers fall back to their in-order
// receive paths; true unordered delivery stays sim-only until a uTCP
// kernel exists.
//
// Concurrency model: protocol work for a connection executes serially on
// an rt.Loop event goroutine, preserving the simulator's "no locks above
// the kernel" invariant. Two runtime shapes exist:
//
//   - Poll (Config.Group on Linux): a Group multiplexes N connections per
//     loop, one loop per core. Each loop owns a readiness poller (epoll)
//     registered edge-triggered on every connection's fd, and the loop's
//     event goroutine parks in it. Reads and writes run non-blocking on
//     the event goroutine itself; a peer that stops reading parks its
//     connection until EPOLLOUT. One goroutine per loop, zero per
//     connection — the shape whose per-connection cost is a map entry
//     and an epoll registration.
//   - Goroutine fallback (the default without a Group, and the portable
//     shape for sockets a Group cannot poll: other platforms, non-TCP
//     net.Conns, failed epoll registration): a reader goroutine and a
//     writer goroutine per connection, both free to block in the kernel.
//     The reader posts into the loop through a per-connection FIFO lane
//     (preserving delivery order). Without a Group the connection also
//     owns its loop — 3 goroutines per connection, maximum isolation; on
//     a Group it shares the group loop.
//
// Either way, buffers cross the socket boundary by reference: the
// zero-copy ownership conventions of the datagram datapath hold end to
// end, and writers coalesce queued pooled buffers into single vectored
// writes (net.Buffers/writev) instead of one syscall per record.
package wire
