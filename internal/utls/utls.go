package utls

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"minion/internal/buf"
	"minion/internal/queue"
	"minion/internal/stream"
	"minion/internal/tcp"
	"minion/internal/tlshake"
	"minion/internal/tlsrec"
)

// Errors.
var (
	// ErrHandshake reports a failed key establishment on either handshake
	// path: a malformed compat hello exchange, or any genuine TLS 1.2
	// failure (certificate rejection, Finished mismatch, peer alert —
	// the tlshake error is attached as the cause when Config.Real is
	// set; see Conn.HandshakeErr).
	ErrHandshake = errors.New("utls: handshake failed")
	// ErrNotReady is returned while key establishment is still in flight.
	ErrNotReady = errors.New("utls: handshake not complete")
	// ErrTooLarge rejects a message that cannot fit one TLS record (or
	// the MSS-derived record cap).
	ErrTooLarge = errors.New("utls: message exceeds record capacity")
	// ErrPriorities rejects Options.Priority/Squash without the
	// explicit-record-number extension: standard uTLS cannot reorder its
	// send queue because receivers predict record numbers from stream
	// position (§6.1). The extension is negotiated by the compat
	// handshake only, so priorities are never available on genuine
	// TLS 1.2 (Config.Real) connections.
	ErrPriorities = errors.New("utls: send priorities require the explicit record number extension")
)

// defaultPSK is the simulated pre-shared secret standing in for the TLS key
// exchange (documented substitution, DESIGN.md §6).
var defaultPSK = []byte("minion-simulated-master-secret")

// maxSealOverhead is the worst-case bytes Seal adds to a plaintext:
// header(5) + explicit IV(16) + MAC(32) + padding(<=16) + record num(8).
const maxSealOverhead = tlsrec.HeaderSize + 16 + 32 + 16 + 8

// pendingReserve is send-buffer headroom the pre-handshake queue must
// leave free for the handshake records themselves: the compat hello is
// tiny, while a genuine TLS 1.2 flight carries a certificate chain.
const (
	pendingReserve     = 256
	pendingReserveReal = 16 * 1024
)

// Options mirrors ucobs.Options for the uniform Minion datagram API.
type Options struct {
	Priority uint32
	Squash   bool
}

// Config parameterizes a uTLS endpoint.
type Config struct {
	// Real, when non-nil, selects the genuine TLS 1.2 handshake (via
	// internal/tlshake) instead of the simulated compat hello exchange:
	// the connection's bytes are then accepted by stock TLS peers, and
	// the negotiated suite is tlsrec.SuiteTLS12GCM
	// (ECDHE_RSA_WITH_AES_128_GCM_SHA256, preferred) or tlsrec.SuiteTLS12
	// (ECDHE_RSA_WITH_AES_128_CBC_SHA), restrictable via
	// Real.CipherSuites. Servers must set Real.Certificate. Suite, PSK
	// and ExplicitRecNum are ignored in this mode (the extension has no
	// TLS 1.2 negotiation vehicle).
	Real *tlshake.Config
	// Suite is the proposed/preferred ciphersuite class of the compat
	// handshake. Zero value means SuiteCBCExplicitIV (TLS 1.1), the
	// class that permits out-of-order delivery. Negotiation picks the
	// weaker of the two endpoints' proposals, mirroring "permit older
	// ciphersuites to maximize interoperability, at the risk of
	// sacrificing out-of-order delivery".
	Suite tlsrec.Suite
	// PredictWindow is how many adjacent record numbers are tried around
	// the estimate (default 3 on each side).
	PredictWindow int
	// ExplicitRecNum enables the §6.1 extension on this endpoint; it takes
	// effect only if both endpoints enable it (negotiated in the compat
	// handshake, invisibly to middleboxes since the number travels under
	// encryption).
	ExplicitRecNum bool
	// PSK overrides the compat handshake's simulated pre-shared secret.
	PSK []byte
}

func (cfg Config) defaults() Config {
	if cfg.Suite == tlsrec.SuiteNull {
		cfg.Suite = tlsrec.SuiteCBCExplicitIV
	}
	if cfg.PredictWindow == 0 {
		cfg.PredictWindow = 3
	}
	if cfg.PSK == nil {
		cfg.PSK = defaultPSK
	}
	if cfg.Real != nil {
		cfg.ExplicitRecNum = false
	}
	return cfg
}

// Stats counts protocol activity. CPUSeal/CPUOpen accumulate real
// processor time spent sealing and opening/scanning records — the "user
// time" the paper's Figure 6(b) compares between TLS and uTLS.
type Stats struct {
	MessagesSent      int
	MessagesDelivered int
	DeliveredOOO      int // delivered from out-of-order fragments
	HeaderCandidates  int // plausible headers found in OOO fragments
	FalsePositives    int // candidates that failed every MAC attempt
	MACAttempts       int // OpenAt attempts during prediction
	PredictExact      int // verified on first predicted number
	DroppedSends      int // pre-handshake sends lost to a full transport at flush
	BytesSealed       int64
	CPUSeal           time.Duration
	CPUOpen           time.Duration
}

type anchor struct {
	off uint64 // stream offset of a verified record header (data epoch)
	num uint64 // its record number
}

// Conn is a uTLS datagram connection over a TCP or uTCP stream.
type Conn struct {
	tc       tcp.Stream
	cfg      Config
	isClient bool

	handshakeDone bool
	explicitOn    bool
	suite         tlsrec.Suite
	myRandom      []byte
	seal          *tlsrec.Seal
	open          *tlsrec.Open
	hs            *tlshake.Engine // genuine TLS 1.2 handshake (Config.Real)
	hsErr         error           // terminal handshake failure
	closeSent     bool            // close_notify already written

	unordered bool // OOO machinery active (uTCP + capable suite)
	recCap    int  // MSS-aware max message size (0 = no segment guarantee)

	asm        *stream.Assembler
	inOrderPos uint64 // stream offset of the next in-order record header

	deliveredOOO map[uint64]bool // record numbers delivered ahead of order
	scanned      stream.IntervalSet
	anchors      []anchor
	falsePos     map[uint64]bool
	avgRecLen    float64

	pendingSend  [][]byte // app data queued before the handshake completes
	pendingOpts  []Options
	pendingBytes int // worst-case sealed bytes of the pending queue

	onMessage func(msg []byte)
	onReady   func()
	recvQ     queue.FIFO[[]byte]
	stats     Stats

	readBuf     []byte // ordered-mode drain buffer, allocated once
	sealScratch []byte // explicit-recnum plaintext build scratch (Seal copies it)
}

// Client creates the client side of a uTLS connection over tc — the
// simulated uTCP substrate or a real-socket wire stream — and starts the
// handshake (tc should be connected or connecting).
func Client(tc tcp.Stream, cfg Config) *Conn {
	c := newConn(tc, cfg, true)
	c.startHandshake()
	return c
}

// Server creates the server side of a uTLS connection over tc.
func Server(tc tcp.Stream, cfg Config) *Conn {
	return newConn(tc, cfg, false)
}

func newConn(tc tcp.Stream, cfg Config, isClient bool) *Conn {
	c := &Conn{
		tc:           tc,
		cfg:          cfg.defaults(),
		isClient:     isClient,
		asm:          stream.NewAssembler(),
		deliveredOOO: make(map[uint64]bool),
		falsePos:     make(map[uint64]bool),
	}
	if c.cfg.Real != nil {
		if isClient {
			c.hs = tlshake.NewClient(*c.cfg.Real)
		} else {
			c.hs = tlshake.NewServer(*c.cfg.Real)
		}
	}
	tc.OnReadable(c.pump)
	return c
}

// Transport returns the underlying stream transport.
func (c *Conn) Transport() tcp.Stream { return c.tc }

// Stats returns a copy of the counters.
func (c *Conn) Stats() Stats { return c.stats }

// Suite returns the negotiated ciphersuite (valid after the handshake).
func (c *Conn) Suite() tlsrec.Suite { return c.suite }

// ExplicitRecNumActive reports whether the §6.1 extension was negotiated.
func (c *Conn) ExplicitRecNumActive() bool { return c.explicitOn }

// MaxMessageSize returns the largest Send the connection accepts: the TLS
// record bound, tightened by MSS-aware record sizing on transports that
// preserve write boundaries (valid after the handshake).
func (c *Conn) MaxMessageSize() int {
	limit := tlsrec.MaxPlaintext
	if c.explicitOn {
		limit -= 8
	}
	if c.recCap > 0 && c.recCap < limit {
		limit = c.recCap
	}
	return limit
}

// Ready reports handshake completion.
func (c *Conn) Ready() bool { return c.handshakeDone }

// HandshakeErr returns the terminal handshake failure, if any: the
// connection sent a fatal alert and closed its transport. Wrapped so
// errors.Is(err, ErrHandshake) holds alongside the tlshake cause.
func (c *Conn) HandshakeErr() error { return c.hsErr }

// OnReady registers a callback invoked when the handshake completes,
// after the sends queued behind it have been flushed to the transport —
// so a sender the pending queue turned away can resume in order from it.
func (c *Conn) OnReady(fn func()) {
	c.onReady = fn
	if c.handshakeDone && fn != nil {
		fn()
	}
}

// OnMessage registers the delivery callback; without one, messages queue
// for Recv.
func (c *Conn) OnMessage(fn func(msg []byte)) { c.onMessage = fn }

// Recv pops a queued message.
func (c *Conn) Recv() (msg []byte, ok bool) {
	return c.recvQ.Pop()
}

// Pending returns queued received messages.
func (c *Conn) Pending() int { return c.recvQ.Len() }

// Close closes the connection. On an established connection it first
// sends a close_notify alert (best-effort: a full send queue or dead
// stream skips it), so wire-compatible peers — stock crypto/tls included
// — observe a clean TLS end-of-stream instead of a bare FIN, then closes
// the underlying stream. Idempotent.
func (c *Conn) Close() {
	c.sendCloseNotify()
	c.tc.Close()
}

// sendCloseNotify seals and writes the close_notify alert, once.
// Incoming close_notify needs no handling here: record processing drops
// non-AppData types after decryption, and the peer's FIN delivers EOF.
func (c *Conn) sendCloseNotify() {
	if c.closeSent || !c.handshakeDone || c.hsErr != nil || c.seal == nil {
		return
	}
	c.closeSent = true
	// Alert payload: level warning(1), description close_notify(0).
	rec, err := c.seal.Seal(tlsrec.TypeAlert, []byte{1, 0})
	if err != nil {
		return
	}
	c.tc.Write(rec)
}

// Compat handshake wire format: kind(1) random(16) suite(1) flags(1),
// sealed as a TLS handshake-type record under the null ciphersuite. (The
// genuine TLS 1.2 handshake — Config.Real — replaces this exchange
// entirely; see internal/tlshake for its wire format.)
const (
	hsClientHello        byte = 1
	hsServerHello        byte = 2
	hsFlagExplicitRecNum byte = 1
	hsLen                     = 19
)

func (c *Conn) startHandshake() {
	if c.hs != nil {
		out, err := c.hs.Start()
		if werr := c.writeHandshake(out); err == nil {
			err = werr
		}
		if err != nil {
			c.failHandshake(err)
		}
		return
	}
	c.myRandom = make([]byte, 16)
	// Derive the random from the connection's deterministic environment:
	// the simulation provides no crypto/rand, and key secrecy is out of
	// scope for the reproduction (see DESIGN.md §6).
	for i := range c.myRandom {
		c.myRandom[i] = byte(i*31 + 7)
	}
	if c.isClient {
		c.myRandom[0] = 0xC1
	} else {
		c.myRandom[0] = 0x5E
	}
	msg := make([]byte, hsLen)
	if c.isClient {
		msg[0] = hsClientHello
	} else {
		msg[0] = hsServerHello
	}
	copy(msg[1:17], c.myRandom)
	msg[17] = byte(c.cfg.Suite)
	if c.cfg.ExplicitRecNum {
		msg[18] |= hsFlagExplicitRecNum
	}
	// Handshake records travel under the null "ciphersuite".
	nullSeal, _ := tlsrec.NewSeal(tlsrec.SuiteNull, nil, nil)
	rec, _ := nullSeal.Seal(tlsrec.TypeHandshake, msg)
	c.tc.Write(rec)
}

func (c *Conn) handleHandshake(payload []byte) error {
	if len(payload) != hsLen {
		return ErrHandshake
	}
	kind := payload[0]
	peerRandom := append([]byte(nil), payload[1:17]...)
	peerSuite := tlsrec.Suite(payload[17])
	peerExplicit := payload[18]&hsFlagExplicitRecNum != 0

	if c.isClient && kind != hsServerHello || !c.isClient && kind != hsClientHello {
		return ErrHandshake
	}
	if !c.isClient {
		// Server replies with its own hello before deriving keys.
		c.startHandshake()
	}

	// Negotiate: the weaker suite wins (interoperability-first); the
	// extension requires both sides.
	c.suite = c.cfg.Suite
	if peerSuite < c.suite {
		c.suite = peerSuite
	}
	c.explicitOn = c.cfg.ExplicitRecNum && peerExplicit && c.suite.SupportsOutOfOrder()

	clientRandom, serverRandom := c.myRandom, peerRandom
	if !c.isClient {
		clientRandom, serverRandom = peerRandom, c.myRandom
	}
	kb := tlsrec.DeriveKeys(c.cfg.PSK, clientRandom, serverRandom)
	var err error
	if c.isClient {
		c.seal, err = tlsrec.NewSeal(c.suite, kb.ClientWriteKey, kb.ClientWriteMAC)
		if err == nil {
			c.open, err = tlsrec.NewOpen(c.suite, kb.ServerWriteKey, kb.ServerWriteMAC)
		}
	} else {
		c.seal, err = tlsrec.NewSeal(c.suite, kb.ServerWriteKey, kb.ServerWriteMAC)
		if err == nil {
			c.open, err = tlsrec.NewOpen(c.suite, kb.ClientWriteKey, kb.ClientWriteMAC)
		}
	}
	if err != nil {
		return fmt.Errorf("utls: key setup: %w", err)
	}
	c.finishHandshake()
	return nil
}

// finishHandshake completes key establishment for either handshake path:
// arms the out-of-order machinery, derives the MSS-aware record cap, and
// flushes sends queued while keys were still negotiating. The caller has
// already installed c.seal/c.open/c.suite/c.explicitOn.
func (c *Conn) finishHandshake() {
	c.handshakeDone = true
	// Out-of-order machinery engages only with uTCP underneath and a
	// chaining-free, authenticated suite (§6.1: under the null suite or a
	// chained suite, uTLS "disables out-of-order delivery").
	c.unordered = c.tc.Unordered() && c.suite.SupportsOutOfOrder()
	c.avgRecLen = 0
	// MSS-aware record sizing: on a boundary-preserving transport, cap
	// messages so every sealed record fits in one segment. The receiver
	// then sees whole records per delivery and parses them without ever
	// merging fragments in its assembler; an OOO scan confirms a record
	// from a single fragment instead of waiting for its continuation.
	c.recCap = 0
	if segCap := c.tc.SegmentCapacity(); segCap > 0 {
		if m := c.suite.MaxPlaintextFor(segCap); m > 0 {
			if c.explicitOn {
				m -= 8
			}
			if m > 0 {
				c.recCap = m
			}
		}
	}

	// Flush writes queued during the handshake with the MSS-derived cap
	// bypassed: these messages were admitted before the cap existed, and
	// an oversized record straddling segments beats dropping it (see
	// pendingLimit). Sizes were bounded by pendingLimit and the total by
	// the send-buffer admission check, so these sends cannot fail;
	// DroppedSends stays as a loud canary should that invariant break.
	pend, opts := c.pendingSend, c.pendingOpts
	c.pendingSend, c.pendingOpts = nil, nil
	c.pendingBytes = 0
	savedCap := c.recCap
	c.recCap = 0
	for i, m := range pend {
		if err := c.Send(m, opts[i]); err != nil {
			c.stats.DroppedSends++
		}
	}
	c.recCap = savedCap
	if c.onReady != nil {
		c.onReady()
	}
}

// failHandshake latches a terminal handshake error and tears the stream
// down; sends queued behind the handshake are dropped (and counted).
func (c *Conn) failHandshake(err error) {
	if c.hsErr != nil {
		return
	}
	c.hsErr = fmt.Errorf("%w: %w", ErrHandshake, err)
	c.stats.DroppedSends += len(c.pendingSend)
	c.pendingSend, c.pendingOpts = nil, nil
	c.pendingBytes = 0
	c.tc.Close()
}

// writeHandshake puts a handshake flight on the stream whole. A transport
// that cannot take every byte (full send buffer) would desynchronize the
// peer's record stream, so a short write is a handshake failure, not a
// retry — the pendingReserve headroom makes this unreachable in practice.
func (c *Conn) writeHandshake(out []byte) error {
	if len(out) == 0 {
		return nil
	}
	n, err := c.tc.Write(out)
	if err != nil {
		return err
	}
	if n < len(out) {
		return fmt.Errorf("utls: handshake flight truncated (%d of %d bytes): %w", n, len(out), tcp.ErrWouldBlock)
	}
	return nil
}

// processHandshakeRecord feeds one complete record to the genuine TLS 1.2
// engine and writes its response flights (or fatal alert) to the stream.
func (c *Conn) processHandshakeRecord(record []byte) {
	out, err := c.hs.Feed(record)
	if werr := c.writeHandshake(out); err == nil {
		err = werr
	}
	if err != nil {
		c.failHandshake(err)
		return
	}
	if c.hs.Done() {
		c.seal, c.open = c.hs.Keys()
		c.suite = c.hs.NegotiatedSuite()
		c.explicitOn = false
		c.finishHandshake()
	}
}

// pendingLimit bounds messages queued before the handshake completes.
// The MSS-derived record cap is not known yet (suite and extension are
// still negotiating) and deliberately does NOT apply here: the flush
// sends queued messages with the cap bypassed, because a record that
// straddles a segment boundary is still correct — it merely loses the
// single-segment fast path — whereas rejecting or dropping an
// already-accepted message would not be. Only the hard TLS record bound
// applies.
func (c *Conn) pendingLimit() int {
	limit := tlsrec.MaxPlaintext
	if c.cfg.ExplicitRecNum {
		limit -= 8
	}
	return limit
}

// Send seals msg as one TLS application-data record and writes it to the
// stream. Priorities (and squash) are honored only with the explicit
// record number extension: standard uTLS cannot reorder its send queue
// because the receiver predicts record numbers from stream position (§6.1).
func (c *Conn) Send(msg []byte, opt Options) error {
	if !c.handshakeDone {
		if c.hsErr != nil {
			return c.hsErr
		}
		if len(msg) > c.pendingLimit() {
			return ErrTooLarge
		}
		// Bound the queue by the transport's send buffer (minus headroom
		// for the handshake records themselves): a Send accepted here is
		// guaranteed to fit at flush time, so backpressure surfaces now as
		// ErrWouldBlock instead of a silent drop after the handshake.
		reserve := pendingReserve
		if c.hs != nil {
			reserve = pendingReserveReal
		}
		needed := len(msg) + maxSealOverhead
		if c.pendingBytes+needed > c.tc.SendBufAvailable()-reserve {
			return tcp.ErrWouldBlock
		}
		c.pendingBytes += needed
		c.pendingSend = append(c.pendingSend, append([]byte(nil), msg...))
		c.pendingOpts = append(c.pendingOpts, opt)
		return nil
	}
	limit := c.MaxMessageSize()
	if len(msg) > limit {
		return ErrTooLarge
	}
	// Sealing is not undoable: it consumes a record number and advances
	// chaining state. Refuse up front if the transport cannot take the
	// whole record, so a failed write never desynchronizes the receiver's
	// record numbering.
	if c.tc.SendBufAvailable() < len(msg)+maxSealOverhead {
		return tcp.ErrWouldBlock
	}
	var rec []byte
	var err error
	if c.explicitOn {
		seq := c.seal.Seq()
		if cap(c.sealScratch) < 8+len(msg) {
			c.sealScratch = make([]byte, 8+len(msg))
		}
		plaintext := c.sealScratch[:8+len(msg)]
		binary.BigEndian.PutUint64(plaintext, seq)
		copy(plaintext[8:], msg)
		t0 := time.Now()
		rec, err = c.seal.Seal(tlsrec.TypeAppData, plaintext)
		c.stats.CPUSeal += time.Since(t0)
		if err != nil {
			return err
		}
		c.stats.BytesSealed += int64(len(rec))
		c.stats.MessagesSent++
		// Adopt the sealed record: the transport slices it onto the wire
		// without another copy.
		_, werr := c.tc.WriteMsgBuf(buf.Adopt(rec), tcp.WriteOptions{Tag: opt.Priority, Squash: opt.Squash})
		return werr
	}
	if opt.Priority != 0 || opt.Squash {
		return ErrPriorities
	}
	if c.suite.SupportsOutOfOrder() {
		// Allocation-free path: seal directly into a pooled buffer of the
		// exact wire size. WriteMsgBuf takes ownership of the buffer.
		b := buf.Get(c.suite.SealedLen(len(msg)))
		t0 := time.Now()
		_, err := c.seal.SealInto(b.Bytes(), tlsrec.TypeAppData, msg)
		c.stats.CPUSeal += time.Since(t0)
		if err != nil {
			b.Release()
			return err
		}
		c.stats.BytesSealed += int64(b.Len())
		c.stats.MessagesSent++
		_, werr := c.tc.WriteMsgBuf(b, tcp.WriteOptions{Tag: tcp.TagDefault})
		return werr
	}
	t0 := time.Now()
	rec, err = c.seal.Seal(tlsrec.TypeAppData, msg)
	c.stats.CPUSeal += time.Since(t0)
	if err != nil {
		return err
	}
	c.stats.BytesSealed += int64(len(rec))
	c.stats.MessagesSent++
	// The SendBufAvailable check above guarantees the whole record fits,
	// so the all-or-nothing WriteMsgBuf degrades to an ordinary FIFO
	// append here (no UnorderedSend options are passed) while letting the
	// transport adopt the record without copying.
	_, werr := c.tc.WriteMsgBuf(buf.Adopt(rec), tcp.WriteOptions{Tag: tcp.TagDefault})
	return werr
}

// pump drains the transport. In-order deliveries that arrive while the
// assembler is empty — the steady state when the sender's MSS-aware
// record sizing keeps every record inside one segment — are parsed
// straight from the delivery's bytes; only an incomplete record tail (or
// an out-of-order fragment) enters the assembler.
func (c *Conn) pump() {
	if c.tc.Unordered() {
		for {
			d, err := c.tc.ReadUnordered()
			if err != nil {
				return
			}
			if d.InOrder && d.Offset == c.inOrderPos && c.asm.BufferedBytes() == 0 {
				consumed := c.parseInOrderDirect(d.Data)
				if consumed < len(d.Data) {
					c.asm.Insert(d.Offset+uint64(consumed), d.Data[consumed:])
				}
			} else {
				ext := c.asm.Insert(d.Offset, d.Data)
				c.advanceInOrder()
				if c.unordered && !d.InOrder {
					// Incremental scan: only from the last verified record
					// boundary below the new bytes — earlier regions were
					// already scanned when their bytes arrived (false-positive
					// offsets are cached; missed records fall back to the
					// in-order path).
					scan := ext
					if b := c.scanned.PrevEnd(d.Offset); b > scan.Start && b < ext.End {
						scan.Start = b
					}
					c.scanFragment(scan)
				}
			}
			c.gc()
			d.Release()
		}
	}
	if c.readBuf == nil {
		c.readBuf = make([]byte, 32*1024)
	}
	for {
		n, err := c.tc.Read(c.readBuf)
		if n == 0 || err != nil {
			return
		}
		data := c.readBuf[:n]
		if c.asm.BufferedBytes() == 0 {
			// An empty assembler means every received byte was parsed, so
			// this read starts exactly at the in-order position.
			consumed := c.parseInOrderDirect(data)
			if consumed < len(data) {
				c.asm.Insert(c.inOrderPos, data[consumed:])
			}
			continue
		}
		c.asm.Insert(c.asm.ContiguousEnd(c.inOrderPos), data)
		c.advanceInOrder()
		c.gc()
	}
}

// parseInOrderDirect parses complete records at the in-order position
// straight out of a contiguous byte run, advancing the record counters
// exactly like advanceInOrder but without copying the run into the
// assembler. It returns the bytes consumed; the caller banks the
// remainder (an incomplete trailing record) in the assembler. In-order
// garbage stalls the parser, as on the assembler path (TLS would alert
// and abort).
func (c *Conn) parseInOrderDirect(data []byte) int {
	pos := 0
	for pos+tlsrec.HeaderSize <= len(data) {
		_, _, length, err := tlsrec.ParseHeader(data[pos : pos+tlsrec.HeaderSize])
		if err != nil {
			break
		}
		recEnd := pos + tlsrec.HeaderSize + length
		if recEnd > len(data) {
			break
		}
		c.processInOrderRecord(data[pos:recEnd])
		c.inOrderPos += uint64(recEnd - pos)
		pos = recEnd
	}
	return pos
}

// advanceInOrder parses complete records at the in-order position — the
// standard TLS receive path. Records already delivered out-of-order are
// skipped (exactly-once), but still parsed so sequence numbers and chaining
// state advance.
func (c *Conn) advanceInOrder() {
	for {
		end := c.asm.ContiguousEnd(c.inOrderPos)
		if end < c.inOrderPos+tlsrec.HeaderSize {
			return
		}
		hdr, ok := c.asm.Bytes(stream.Extent{Start: c.inOrderPos, End: c.inOrderPos + tlsrec.HeaderSize})
		if !ok {
			return
		}
		_, _, length, err := tlsrec.ParseHeader(hdr)
		if err != nil {
			// In-order garbage means a broken peer; nothing better to do
			// than stall (TLS would alert and abort).
			return
		}
		recEnd := c.inOrderPos + tlsrec.HeaderSize + uint64(length)
		if end < recEnd {
			return
		}
		record, ok := c.asm.Bytes(stream.Extent{Start: c.inOrderPos, End: recEnd})
		if !ok {
			return
		}
		c.processInOrderRecord(record)
		c.inOrderPos = recEnd
	}
}

func (c *Conn) processInOrderRecord(record []byte) {
	t0 := time.Now()
	defer func() { c.stats.CPUOpen += time.Since(t0) }()
	if !c.handshakeDone {
		if c.hs != nil {
			c.processHandshakeRecord(record)
			return
		}
		nullOpen, _ := tlsrec.NewOpen(tlsrec.SuiteNull, nil, nil)
		typ, payload, err := nullOpen.Open(record)
		if err == nil && typ == tlsrec.TypeHandshake {
			c.handleHandshake(payload)
		}
		return
	}
	if c.explicitOn {
		recNum, msg, err := c.openExplicit(record)
		if err != nil {
			return
		}
		if c.deliveredOOO[recNum] {
			delete(c.deliveredOOO, recNum)
			c.noteRecord(len(record))
			return
		}
		c.noteRecord(len(record))
		c.deliver(msg, false)
		return
	}
	recNum := c.open.Seq()
	if c.deliveredOOO[recNum] {
		// Already delivered out of order: advance the record counter
		// without paying for decryption again (the wire bytes were MAC-
		// verified when delivered). This keeps the uTLS receiver's cost
		// close to TLS's (paper: within 7%).
		if err := c.open.SkipSeq(); err == nil {
			delete(c.deliveredOOO, recNum)
			c.noteRecord(len(record))
			return
		}
	}
	// In-order records decrypt in place inside the delivery/assembler
	// bytes (no copy into the opener's scratch). Safe here because a
	// record that fails to open is dropped and the parser moves past its
	// bytes — nothing re-reads them.
	typ, msg, err := c.open.OpenInPlace(record)
	if err != nil || typ != tlsrec.TypeAppData {
		return
	}
	c.noteRecord(len(record))
	c.deliver(msg, false)
}

func (c *Conn) openExplicit(record []byte) (uint64, []byte, error) {
	typ, inner, err := c.open.DecryptNoVerify(record)
	if err != nil {
		return 0, nil, err
	}
	if len(inner) < 8+c.open.MACSize() {
		return 0, nil, tlsrec.ErrBadRecord
	}
	recNum := binary.BigEndian.Uint64(inner[:8])
	pt, err := c.open.VerifyMAC(inner, recNum, typ)
	if err != nil {
		return 0, nil, err
	}
	return recNum, pt[8:], nil
}

// scanFragment is the uTLS out-of-order path: hunt for plausible record
// headers in a fragment beyond the in-order position, guess record numbers,
// and let the MAC arbitrate (§6.1).
func (c *Conn) scanFragment(ext stream.Extent) {
	t0 := time.Now()
	defer func() { c.stats.CPUOpen += time.Since(t0) }()
	if ext.End <= c.inOrderPos {
		return
	}
	if ext.Start < c.inOrderPos {
		ext.Start = c.inOrderPos
	}
	data, ok := c.asm.Bytes(ext)
	if !ok {
		return
	}
	version := c.suite.Version()
	off := 0
	for off+tlsrec.HeaderSize <= len(data) {
		absOff := ext.Start + uint64(off)
		if c.scanned.ContainsPoint(absOff) || c.falsePos[absOff] {
			off++
			continue
		}
		hdr := data[off : off+tlsrec.HeaderSize]
		if !tlsrec.PlausibleHeader(hdr, version) {
			off++
			continue
		}
		_, _, length, err := tlsrec.ParseHeader(hdr)
		if err != nil {
			off++
			continue
		}
		recEnd := off + tlsrec.HeaderSize + length
		if recEnd > len(data) {
			// The record doesn't lie fully in this fragment: cannot verify
			// yet; it may complete when the fragment grows.
			off++
			continue
		}
		c.stats.HeaderCandidates++
		record := data[off:recEnd]
		if recNum, msg, ok := c.tryVerify(record, absOff); ok {
			c.deliveredOOO[recNum] = true
			c.scanned.Add(absOff, absOff+uint64(len(record)))
			c.anchors = append(c.anchors, anchor{off: absOff, num: recNum})
			c.noteRecord(len(record))
			c.deliver(msg, true)
			off = recEnd
			continue
		}
		c.stats.FalsePositives++
		c.falsePos[absOff] = true
		off++
	}
}

// tryVerify authenticates a candidate record, either via the embedded
// explicit record number or by trying predicted numbers.
func (c *Conn) tryVerify(record []byte, absOff uint64) (uint64, []byte, bool) {
	if c.explicitOn {
		c.stats.MACAttempts++
		recNum, msg, err := c.openExplicit(record)
		if err != nil {
			return 0, nil, false
		}
		if c.deliveredOOO[recNum] {
			return 0, nil, false // duplicate fragment of a delivered record
		}
		c.stats.PredictExact++
		return recNum, msg, true
	}
	est := c.predictRecNum(absOff)
	if c.suite == tlsrec.SuiteTLS12GCM {
		// GCM records carry their record number on the wire as the RFC
		// 5288 explicit nonce (crypto/tls convention: nonce = seq), so a
		// conforming peer is verified on the first attempt; the window
		// below still arbitrates for peers with other nonce schemes.
		if n, ok := tlsrec.ExplicitNonce(record); ok {
			est = n
		}
	}
	for k := 0; k <= c.cfg.PredictWindow; k++ {
		for _, sign := range []int64{1, -1} {
			if k == 0 && sign == -1 {
				continue
			}
			n := int64(est) + sign*int64(k)
			if n < 0 {
				continue
			}
			recNum := uint64(n)
			if c.deliveredOOO[recNum] {
				continue
			}
			c.stats.MACAttempts++
			typ, msg, err := c.open.OpenAt(record, recNum)
			if err == nil && typ == tlsrec.TypeAppData {
				if k == 0 {
					c.stats.PredictExact++
				}
				return recNum, msg, true
			}
		}
	}
	return 0, nil, false
}

// predictRecNum estimates the record number of a record starting at stream
// offset absOff: from the nearest verified anchor at or below absOff (the
// in-order position is always an anchor), advance by gap/averageRecordSize
// (§6.1: "heuristics such as the average size of past records").
func (c *Conn) predictRecNum(absOff uint64) uint64 {
	baseOff := c.inOrderPos
	baseNum := c.open.Seq()
	for _, a := range c.anchors {
		if a.off <= absOff && a.off > baseOff {
			baseOff = a.off
			baseNum = a.num
		}
		// Anchors above can bound from the other side too; nearest-below
		// is the primary estimator.
	}
	avg := c.avgRecLen
	if avg <= 0 {
		avg = 512 // before any sample, assume mid-size records
	}
	gap := float64(absOff - baseOff)
	return baseNum + uint64(gap/avg+0.5)
}

// noteRecord updates the running average record size.
func (c *Conn) noteRecord(wireLen int) {
	if c.avgRecLen == 0 {
		c.avgRecLen = float64(wireLen)
		return
	}
	c.avgRecLen = 0.875*c.avgRecLen + 0.125*float64(wireLen)
}

func (c *Conn) deliver(msg []byte, ooo bool) {
	c.stats.MessagesDelivered++
	if ooo {
		c.stats.DeliveredOOO++
	}
	if c.onMessage != nil {
		// msg is freshly decrypted plaintext owned by this call: hand it
		// to the callback directly (valid until the callback returns).
		c.onMessage(msg)
	} else {
		c.recvQ.Push(append([]byte(nil), msg...))
	}
}

// gc discards consumed stream data. Everything below the in-order position
// has been parsed; fragments above stay until the in-order pass reaches
// them (the uTLS receiver keeps OOO-delivered records to re-parse them for
// counter advancement, like the prototype).
func (c *Conn) gc() {
	c.asm.Discard(c.inOrderPos)
	if len(c.anchors) > 64 {
		keep := c.anchors[:0]
		for _, a := range c.anchors {
			if a.off >= c.inOrderPos {
				keep = append(keep, a)
			}
		}
		c.anchors = keep
	}
}
