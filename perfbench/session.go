package main

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"minion"
	"minion/internal/tcp"
	"minion/internal/ucobs"
	"minion/internal/utcp"
	"minion/internal/utls"
)

// flow is one directed stream of benchmark messages. Its sender reserves
// a sequence number before each send; its receiver checks each message.
type flow struct {
	name    string
	gen     *msgGen
	sent    atomic.Int64 // sequence numbers handed out
	refused atomic.Int64 // sends the transport never accepted
	dropped atomic.Int64 // accepted sends later reported lost (OnResult)
	stalls  atomic.Int64 // TrySend queue stalls the sender had to break
	check   flowCheck
	// origin is the flow this one answers (replies and echoes reuse the
	// origin's sequence numbers); nil for a flow that originates messages.
	origin *flow
}

func newFlow(name string, gen *msgGen, origin *flow) *flow {
	return &flow{name: name, gen: gen, origin: origin}
}

// reserve hands out the next sequence number.
func (f *flow) reserve() uint64 { return uint64(f.sent.Add(1) - 1) }

// receive verifies and records one delivered message and reports whether
// it was new and intact.
func (f *flow) receive(msg []byte) (parsed, bool) {
	p, ok := verify(msg, f.gen.size)
	if ok && p.flow != f.gen.flow {
		ok = false
	}
	bound := f.sent.Load()
	if f.origin != nil {
		bound = f.origin.sent.Load()
	}
	return p, f.check.deliver(p, ok, len(msg), bound)
}

// settled reports whether every accepted message has been delivered.
func (f *flow) settled() bool {
	return f.check.unique.Load()+f.refused.Load()+f.dropped.Load() >= f.sent.Load()
}

// lost counts accepted messages that were not delivered intact exactly
// once: on a reliable stack any of these fails the run.
func (f *flow) lost() int64 {
	return f.check.failures(f.sent.Load()) - f.refused.Load()
}

// phase is one measured window. Latency samples are kept for messages
// sent (or due) inside it; each samples set has one writer.
type phase struct {
	start, end atomic.Int64
	owd        samples // one-way delay of the latency flow, µs (receiver loop)
	rtt        samples // request→reply or message→echo, µs (requester loop)
	late       samples // open-loop pacer lateness, µs (pacer)
	expected   atomic.Int64
}

// newPhase returns a phase that has not started: publish it, then call
// begin, so a sender that stamps a message inside the window always sees
// the phase its receiver will record the message in.
func newPhase() *phase {
	p := &phase{}
	p.start.Store(math.MaxInt64)
	p.end.Store(math.MaxInt64)
	return p
}

func (p *phase) begin() { p.start.Store(nowNs()) }

func (p *phase) in(t int64) bool { return t >= p.start.Load() && t < p.end.Load() }

// endpoint is one side of a connection, with the span log its callbacks
// write and a hook that reads the layers' counters on the owning loop.
type endpoint struct {
	name      string
	c         minion.Conn
	log       *spanLog
	stats     func() connStats // loop-confined
	req       atomic.Pointer[chan connStats]
	done      chan struct{} // closed when the connection reports its terminal error
	transport string        // "tcp" or "udp"
}

func newEndpoint(name string, c minion.Conn, tr *tracer, transport string) *endpoint {
	e := &endpoint{name: name, c: c, log: tr.newLog(), stats: statsReader(c), done: make(chan struct{}), transport: transport}
	var once sync.Once
	minion.OnConnError(c, func(error) { once.Do(func() { close(e.done) }) })
	return e
}

// poll serves a pending counter snapshot; every callback on the
// endpoint's loop calls it, so a snapshot is taken within one message of
// being asked for.
func (e *endpoint) poll() {
	if e.req.Load() == nil {
		return
	}
	if ch := e.req.Swap(nil); ch != nil {
		*ch <- e.stats()
	}
}

// snapshot asks the endpoint's loop for its counters.
func (e *endpoint) snapshot() (connStats, error) {
	ch := make(chan connStats, 1)
	e.req.Store(&ch)
	select {
	case st := <-ch:
		return st, nil
	case <-time.After(5 * time.Second):
		e.req.Store(nil)
		return connStats{}, fmt.Errorf("%s: no callback on its loop within 5s", e.name)
	}
}

// connStats is one endpoint's layer counters.
type connStats struct {
	ucobs    ucobs.Stats
	utls     utls.Stats
	tcp      tcp.Stats
	bind     utcp.WireStats
	hasUCOBS bool
	hasUTLS  bool
	hasTCP   bool
	hasBind  bool
}

// statsReader resolves, once, the layer objects under a public Conn and
// returns a function that reads their counters; it must run on the
// connection's loop.
func statsReader(c minion.Conn) func() connStats {
	inner := c
	if in, ok := c.(interface{ Inner() minion.Conn }); ok {
		inner = in.Inner()
	}
	uc, isU := minion.UCOBSOf(inner)
	ut, isT := minion.UTLSOf(inner)
	var tc *tcp.Conn
	switch {
	case isU:
		tc, _ = uc.Transport().(*tcp.Conn)
	case isT:
		tc, _ = ut.Transport().(*tcp.Conn)
	}
	bind := bindingOf(c)
	return func() connStats {
		var s connStats
		if isU {
			s.ucobs, s.hasUCOBS = uc.Stats(), true
		}
		if isT {
			s.utls, s.hasUTLS = ut.Stats(), true
		}
		if tc != nil {
			s.tcp, s.hasTCP = tc.Stats(), true
		}
		if bind != nil {
			s.bind, s.hasBind = bind.Stats(), true
		}
		return s
	}
}

// bindingOf finds the uTCP packet binding under a uTCP-over-UDP Conn. The
// public adapter does not expose it, so it is read from the adapter's
// transport field; nil when the Conn has no such field (kernel TCP, or an
// adapter whose shape changed), in which case the binding's counters are
// reported as unavailable.
func bindingOf(c minion.Conn) *utcp.Binding {
	v := reflect.ValueOf(c)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return nil
	}
	f := v.Elem().FieldByName("tr")
	if !f.IsValid() || f.Kind() != reflect.Interface || !f.CanAddr() {
		return nil
	}
	f = reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
	if f.IsNil() {
		return nil
	}
	b, ok := f.Interface().(interface{ Binding() *utcp.Binding })
	if !ok {
		return nil
	}
	return b.Binding()
}

// session is one set-up of a workload: its listener, connections, flows
// and generators.
type session struct {
	seed  int64
	tr    *tracer
	setup *setupLog
	root  uint64 // span of the session's set-up
	ph    atomic.Pointer[phase]
	stop  atomic.Bool
	wg    sync.WaitGroup // generators

	flows     []*flow
	eps       []*endpoint
	listener  *minion.Listener
	loss      *lossInjector
	latency   *flow   // its one-way delay is owd_*, its deadline share deadline_met_frac
	exchanges *flow   // its deliveries count as completed exchanges (rpc_per_s, rtt_*)
	goodput   []*flow // their payload bytes count as goodput
}

// sendResult returns the OnResult callback of a flow's async sends: it
// counts losses, serves counter snapshots on the loop, and returns a
// credit to the closed-loop sender.
func sendResult(f *flow, e *endpoint, cr *credits) func(error) {
	return func(err error) {
		if err != nil {
			f.dropped.Add(1)
		}
		e.poll()
		if cr != nil {
			cr.release()
		}
	}
}

// credits paces a closed-loop sender by its outstanding sends: when the
// transport pushes back, the sender waits until half of what it had
// outstanding has been taken, instead of sleeping and retrying.
type credits struct {
	outstanding atomic.Int64
	lowWater    atomic.Int64
	waiting     atomic.Bool
	wake        chan struct{}
}

func newCredits() *credits { return &credits{wake: make(chan struct{}, 1)} }

func (c *credits) acquire() { c.outstanding.Add(1) }

func (c *credits) release() {
	n := c.outstanding.Add(-1)
	if c.waiting.Load() && n <= c.lowWater.Load() {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// wait blocks until the outstanding count falls to half its current
// value or stop is set, and reports true; it reports false if no send
// completes for stallAfter.
func (c *credits) wait(stop *atomic.Bool, stallAfter time.Duration) bool {
	c.lowWater.Store(c.outstanding.Load() / 2)
	c.waiting.Store(true)
	defer c.waiting.Store(false)
	last := c.outstanding.Load()
	deadline := time.Now().Add(stallAfter)
	for c.outstanding.Load() > c.lowWater.Load() && !stop.Load() {
		select {
		case <-c.wake:
		case <-time.After(10 * time.Millisecond):
			// A bound on the wait, not a poll: it lets stop and the stall
			// deadline be seen while no send completes.
		}
		if n := c.outstanding.Load(); n != last {
			last, deadline = n, time.Now().Add(stallAfter)
		} else if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// stallAfter is how long a closed-loop sender waits with no TrySend
// completing before it checks the connection for a stalled queue.
const stallAfter = 200 * time.Millisecond

// bulkSender streams f's messages on e as fast as the transport accepts
// them, from its own goroutine.
func (s *session) bulkSender(f *flow, e *endpoint) {
	s.wg.Add(1)
	cr := newCredits()
	onResult := sendResult(f, e, cr)
	opt := minion.Options{OnResult: onResult}
	log := s.tr.newLog()
	buf := make([]byte, f.gen.size)
	go func() {
		defer s.wg.Done()
		for !s.stop.Load() {
			seq := f.reserve()
			sendNs := nowNs()
			m := f.gen.fill(buf, seq, sendNs)
			if ph := s.ph.Load(); ph != nil && ph.in(sendNs) && f == s.latency {
				ph.expected.Add(1)
			}
			for {
				cr.acquire()
				start := nowNs()
				err := e.c.TrySend(m, opt)
				if s.tr.on.Load() {
					log.timeSend("TrySend", 0, f.gen.flow, seq, start)
				}
				if err == nil {
					break
				}
				cr.outstanding.Add(-1)
				if errors.Is(err, minion.ErrWouldBlock) && s.stop.Load() {
					// Stopping while the transport pushes back: the
					// message was never sent, so it was never attempted.
					// Only this goroutine reserves f's numbers.
					f.sent.Add(-1)
					break
				}
				if !errors.Is(err, minion.ErrWouldBlock) {
					f.refused.Add(1)
					break
				}
				if cr.wait(&s.stop, stallAfter) {
					continue
				}
				// No TrySend has completed for stallAfter. If a blocking
				// Send goes through now, the transport had room while the
				// queue behind TrySend sat still: minion's TrySend queue
				// on a kernel-TCP connection can miss the wake-up that
				// flushes it. The Send's own write delivers that wake-up;
				// the stall is counted and reported with the results.
				if e.c.Send(m, minion.Options{}) == nil {
					f.stalls.Add(1)
					break
				}
			}
		}
	}()
}

// handshake sends f's first message on e and waits for its delivery. Dial
// returns before a stack's own handshake (TLS, or uTCP's SYN exchange)
// has finished, so this is the set-up phase in which it completes.
func (s *session) handshake(f *flow, e *endpoint) error {
	_, err := s.setup.phase("handshake", s.root, func(uint64) error {
		seq := f.reserve()
		if err := e.c.TrySend(f.gen.fill(make([]byte, f.gen.size), seq, nowNs()), minion.Options{}); err != nil {
			f.refused.Add(1)
			return fmt.Errorf("handshake: %w", err)
		}
		return s.waitDelivered(f, 1, 10*time.Second)
	})
	return err
}

// warmup waits until every flow in fs has delivered n[i] messages.
func (s *session) warmup(fs []*flow, n []int64) error {
	_, err := s.setup.phase("warmup", s.root, func(uint64) error {
		for i, f := range fs {
			if err := s.waitDelivered(f, n[i], 10*time.Second); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// settle waits until every flow has delivered what it accepted.
func (s *session) settle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		all := true
		for _, f := range s.flows {
			if !f.settled() {
				all = false
				break
			}
		}
		if all {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// waitDelivered waits until f has delivered at least n messages.
func (s *session) waitDelivered(f *flow, n int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for f.check.unique.Load() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up: %s delivered %d of %d messages in %v", f.name, f.check.unique.Load(), n, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// tally is what a session's check found.
type tally struct {
	attempted int64 // messages originated
	failed    int64 // not delivered intact exactly once, refusals included
	lost      int64 // accepted messages a reliable stack lost
	stalls    int64 // TrySend queue stalls broken by a blocking Send
}

// shutdown stops the generators, drains, closes everything and checks
// every flow.
func (s *session) shutdown(drain time.Duration) tally {
	s.stop.Store(true)
	s.wg.Wait()
	s.settle(drain)
	if s.loss != nil {
		wireSetLoss(nil)
	}
	var t tally
	for _, f := range s.flows {
		if f.origin == nil {
			t.attempted += f.sent.Load()
		}
		t.failed += f.check.failures(f.sent.Load())
		t.lost += f.lost()
		t.stalls += f.stalls.Load()
	}
	for _, e := range s.eps {
		e.c.Close()
	}
	for _, e := range s.eps {
		select {
		case <-e.done:
		case <-time.After(5 * time.Second):
		}
	}
	if s.listener != nil {
		s.listener.Close()
	}
	return t
}

// rusage returns the process's user and system CPU time.
func rusage() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}
