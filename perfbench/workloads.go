package main

import (
	"crypto/tls"
	"crypto/x509"
	"fmt"
	"syscall"
	"time"

	"minion"
	"minion/internal/wire"
)

// workload describes one benchmark workload: how to set up a session and
// the knobs of its measurement.
type workload struct {
	name string
	// prepare makes the run's inputs that must not count as set-up
	// (certificates); it runs once, before the first set-up clock starts.
	prepare func(seed int64) (*inputs, error)
	// open listens, dials, accepts, starts the generators and warms up;
	// setup_s is its wall time.
	open func(s *session, in *inputs) error
	// armLoss starts the seeded datagram loss after each measured set-up.
	armLoss bool
	// sessions is how many set-ups an untraced run measures, splitting
	// its window evenly; each metric is the median over them.
	sessions int
	leadIn   time.Duration // run-in after set-up, excluded from every metric
	drain    time.Duration // bound on waiting for in-flight messages
}

// inputs are the seeded inputs shared by the sessions of a run.
type inputs struct {
	cert  *tls.Certificate
	roots *x509.CertPool
}

var workloads = []*workload{
	{name: "rpc-ucobs-tcp", prepare: noInputs, open: openRPC, sessions: 30, leadIn: 200 * time.Millisecond, drain: 10 * time.Second},
	{name: "bulk-utls-tcp", prepare: tlsInputs, open: openBulk, sessions: 45, leadIn: 200 * time.Millisecond, drain: 10 * time.Second},
	// Fewer, longer sessions: each must hold several of the loss-recovery
	// timeouts (about one a second) that make the VoIP tail.
	{name: "lossy-ucobs-utcp", prepare: noInputs, open: openLossy, armLoss: true, sessions: 9, leadIn: 500 * time.Millisecond, drain: 60 * time.Second},
}

func noInputs(int64) (*inputs, error) { return &inputs{}, nil }

// tlsInputs generates the self-signed certificate (RSA-2048 key
// generation takes a variable fraction of a second, so it stays outside
// set-up).
func tlsInputs(int64) (*inputs, error) {
	cert, roots, err := minion.SelfSignedTLS("127.0.0.1")
	if err != nil {
		return nil, fmt.Errorf("certificate: %w", err)
	}
	return &inputs{cert: &cert, roots: roots}, nil
}

// listenDial runs the listen, dial and accept phases of a set-up.
func (s *session) listenDial(proto minion.Protocol, network string, cfg, dcfg minion.TCPConfig, names ...string) ([]minion.Conn, []minion.Conn, error) {
	var ln *minion.Listener
	if _, err := s.setup.phase("listen", s.root, func(uint64) (err error) {
		ln, err = minion.Listen(proto, network, "127.0.0.1:0", cfg)
		return err
	}); err != nil {
		return nil, nil, fmt.Errorf("listen: %w", err)
	}
	s.listener = ln
	var clients, servers []minion.Conn
	for range names {
		var c, sc minion.Conn
		if _, err := s.setup.phase("dial", s.root, func(uint64) (err error) {
			c, err = minion.Dial(proto, network, ln.Addr().String(), dcfg)
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("dial: %w", err)
		}
		clients = append(clients, c)
		if _, err := s.setup.phase("accept", s.root, func(uint64) (err error) {
			sc, err = ln.Accept()
			return err
		}); err != nil {
			return nil, nil, fmt.Errorf("accept: %w", err)
		}
		servers = append(servers, sc)
	}
	return clients, servers, nil
}

// rpc-ucobs-tcp: 64 B requests on one uCOBS/TCP connection, echoed by
// the server; 8 requests in flight, each reply triggering the next.
const (
	rpcSize     = 64
	rpcInFlight = 8
	rpcWarmup   = 2000
)

func openRPC(s *session, _ *inputs) error {
	cfg := minion.TCPConfig{NoDelay: true}
	cs, ss, err := s.listenDial(minion.ProtoUCOBSTCP, "tcp", cfg, cfg, "rpc")
	if err != nil {
		return err
	}
	cli := newEndpoint("client", cs[0], s.tr, "tcp")
	srv := newEndpoint("server", ss[0], s.tr, "tcp")
	s.eps = []*endpoint{cli, srv}
	req := newFlow("request", newMsgGen(s.seed, flowRPC, rpcSize), nil)
	rep := newFlow("reply", req.gen, req)
	s.flows = []*flow{req, rep}
	s.latency, s.exchanges, s.goodput = req, rep, []*flow{req, rep}

	send := func(log *spanLog, buf []byte, parent uint64) {
		seq := req.reserve()
		sendNs := nowNs()
		m := req.gen.fill(buf, seq, sendNs)
		if ph := s.ph.Load(); ph != nil && ph.in(sendNs) {
			ph.expected.Add(1)
		}
		err := cli.c.Send(m, minion.Options{})
		if s.tr.on.Load() {
			log.timeSend("Send", parent, flowRPC, seq, sendNs)
		}
		if err != nil {
			req.refused.Add(1)
		}
	}
	srv.c.OnMessage(func(msg []byte) {
		srv.poll()
		traced := s.tr.on.Load()
		var id uint64
		idx := -1
		if traced {
			id, idx = srv.log.begin("OnMessage", 0, flowRPC, 0)
		}
		p, fresh := req.receive(msg)
		now := nowNs()
		if fresh {
			if ph := s.ph.Load(); ph != nil && ph.in(p.sendNs) {
				ph.owd.add(float64(now-p.sendNs) / 1e3)
			}
		}
		rep.reserve()
		err := srv.c.Send(msg, minion.Options{})
		if err != nil {
			rep.refused.Add(1)
		}
		if traced {
			srv.log.timeSend("Send", id, flowRPC, p.seq, now)
			srv.log.finish(idx, p.seq)
		}
	})
	cliBuf := make([]byte, rpcSize)
	cli.c.OnMessage(func(msg []byte) {
		cli.poll()
		var id uint64
		idx := -1
		if s.tr.on.Load() {
			id, idx = cli.log.begin("OnMessage", 0, flowRPC, 0)
		}
		p, fresh := rep.receive(msg)
		if fresh {
			if ph := s.ph.Load(); ph != nil && ph.in(p.sendNs) {
				ph.rtt.add(float64(nowNs()-p.sendNs) / 1e3)
			}
		}
		if !s.stop.Load() {
			send(cli.log, cliBuf, id)
		}
		cli.log.finish(idx, p.seq)
	})
	s.wg.Add(1)
	genLog := s.tr.newLog()
	go func() {
		defer s.wg.Done()
		buf := make([]byte, rpcSize)
		for i := 0; i < rpcInFlight; i++ {
			send(genLog, buf, 0)
		}
	}()
	return s.warmup([]*flow{rep}, []int64{rpcWarmup})
}

// bulk-utls-tcp: one uTLS/TCP connection with a full TLS 1.2 handshake;
// the client streams 1200 B datagrams as fast as the transport takes
// them, and the server echoes every 64th as a 64 B message.
const (
	bulkSize      = 1200
	bulkEchoEvery = 64
	bulkWarmup    = 2000
)

func openBulk(s *session, in *inputs) error {
	scfg := minion.TCPConfig{NoDelay: true, TLS: &minion.TLSConfig{Certificate: in.cert}}
	ccfg := minion.TCPConfig{NoDelay: true, TLS: &minion.TLSConfig{RootCAs: in.roots, ServerName: "127.0.0.1"}}
	cs, ss, err := s.listenDial(minion.ProtoUTLSTCP, "tcp", scfg, ccfg, "bulk")
	if err != nil {
		return err
	}
	cli := newEndpoint("client", cs[0], s.tr, "tcp")
	srv := newEndpoint("server", ss[0], s.tr, "tcp")
	s.eps = []*endpoint{cli, srv}
	data := newFlow("bulk", newMsgGen(s.seed, flowBulk, bulkSize), nil)
	echo := newFlow("echo", newMsgGen(s.seed, flowEcho, echoLen), data)
	s.flows = []*flow{data, echo}
	s.latency, s.exchanges, s.goodput = data, echo, []*flow{data}
	s.echoOnReceive(srv, data, echo, bulkEchoEvery)
	s.timeEchoes(cli, echo)
	if err := s.handshake(data, cli); err != nil {
		return err
	}
	s.bulkSender(data, cli)
	return s.warmup([]*flow{data}, []int64{bulkWarmup})
}

// echoOnReceive makes e's receive callback check data's messages, sample
// their one-way delay, and answer every nth with an echo.
func (s *session) echoOnReceive(e *endpoint, data, echo *flow, every uint64) {
	buf := make([]byte, echoLen)
	e.c.OnMessage(func(msg []byte) {
		e.poll()
		traced := s.tr.on.Load()
		var id uint64
		idx := -1
		if traced {
			id, idx = e.log.begin("OnMessage", 0, data.gen.flow, 0)
		}
		p, fresh := data.receive(msg)
		now := nowNs()
		if fresh && data == s.latency {
			if ph := s.ph.Load(); ph != nil && ph.in(p.sendNs) {
				ph.owd.add(float64(now-p.sendNs) / 1e3)
			}
		}
		if fresh && echo != nil && p.seq%every == 0 {
			echo.reserve()
			start := nowNs()
			err := e.c.Send(echo.gen.fill(buf, p.seq, p.sendNs), minion.Options{})
			if traced {
				e.log.timeSend("Send", id, flowEcho, p.seq, start)
			}
			if err != nil {
				echo.refused.Add(1)
			}
		}
		e.log.finish(idx, p.seq)
	})
}

// timeEchoes makes e's receive callback check echoes and sample the
// round trip from the original message's send time.
func (s *session) timeEchoes(e *endpoint, echo *flow) {
	e.c.OnMessage(func(msg []byte) {
		e.poll()
		idx := -1
		if s.tr.on.Load() {
			_, idx = e.log.begin("OnMessage", 0, flowEcho, 0)
		}
		p, fresh := echo.receive(msg)
		if fresh {
			if ph := s.ph.Load(); ph != nil && ph.in(p.sendNs) {
				ph.rtt.add(float64(nowNs()-p.sendNs) / 1e3)
			}
		}
		e.log.finish(idx, p.seq)
	})
}

// lossy-ucobs-utcp: two uCOBS/uTCP-over-UDP connections to one listener,
// under seeded loss. A VoIP flow sends 200 B open loop at 1000 msg/s and
// the receiver echoes each message; a bulk flow streams 1000 B datagrams
// closed loop.
const (
	voipSize     = 200
	voipInterval = time.Millisecond
	lossyBulk    = 1000
	lossRate     = 0.03
	deadline     = 150 * time.Millisecond // ITU-T G.114 one-way voice budget
)

func openLossy(s *session, _ *inputs) error {
	cfg := minion.TCPConfig{NoDelay: true}
	cs, ss, err := s.listenDial(minion.ProtoUCOBSuTCP, "udp", cfg, cfg, "voip", "bulk")
	if err != nil {
		return err
	}
	voipCli := newEndpoint("voip-client", cs[0], s.tr, "udp")
	bulkCli := newEndpoint("bulk-client", cs[1], s.tr, "udp")
	// Accept order need not follow dial order: each server endpoint
	// handles whichever flow its messages carry.
	srvA := newEndpoint("server-a", ss[0], s.tr, "udp")
	srvB := newEndpoint("server-b", ss[1], s.tr, "udp")
	s.eps = []*endpoint{voipCli, bulkCli, srvA, srvB}
	voip := newFlow("voip", newMsgGen(s.seed, flowVoIP, voipSize), nil)
	echo := newFlow("echo", newMsgGen(s.seed, flowEcho, echoLen), voip)
	bulk := newFlow("bulk", newMsgGen(s.seed, flowBulk, lossyBulk), nil)
	s.flows = []*flow{voip, echo, bulk}
	s.latency, s.exchanges, s.goodput = voip, echo, []*flow{bulk}
	for _, e := range []*endpoint{srvA, srvB} {
		s.lossyReceiver(e, voip, echo, bulk)
	}
	s.timeEchoes(voipCli, echo)
	if err := s.handshake(voip, voipCli); err != nil {
		return err
	}
	if err := s.handshake(bulk, bulkCli); err != nil {
		return err
	}
	s.voipPacer(voip, voipCli)
	s.bulkSender(bulk, bulkCli)
	return s.warmup([]*flow{voip, bulk}, []int64{5, 500})
}

// lossyReceiver dispatches a server endpoint's messages by flow id.
func (s *session) lossyReceiver(e *endpoint, voip, echo, bulk *flow) {
	buf := make([]byte, echoLen)
	e.c.OnMessage(func(msg []byte) {
		e.poll()
		traced := s.tr.on.Load()
		var id uint64
		idx := -1
		if traced {
			id, idx = e.log.begin("OnMessage", 0, 0, 0)
		}
		f := bulk
		if len(msg) == voip.gen.size && flowOf(msg) == flowVoIP {
			f = voip
		}
		p, fresh := f.receive(msg)
		if fresh && f == voip {
			now := nowNs()
			if ph := s.ph.Load(); ph != nil && ph.in(p.sendNs) {
				ph.owd.add(float64(now-p.sendNs) / 1e3)
			}
			echo.reserve()
			err := e.c.Send(echo.gen.fill(buf, p.seq, p.sendNs), minion.Options{})
			if traced {
				e.log.timeSend("Send", id, flowEcho, p.seq, now)
			}
			if err != nil {
				echo.refused.Add(1)
			}
		}
		if idx >= 0 {
			e.log.spans[idx].Flow = f.gen.flow
		}
		e.log.finish(idx, p.seq)
	})
}

// voipPacer sends f's messages open loop, one per voipInterval. When it
// wakes it sends every message already due, each stamped with its due
// time, so a late wake-up counts against the messages' one-way delay
// instead of thinning the schedule.
func (s *session) voipPacer(f *flow, e *endpoint) {
	s.wg.Add(1)
	onResult := sendResult(f, e, nil)
	opt := minion.Options{OnResult: onResult}
	log := s.tr.newLog()
	buf := make([]byte, f.gen.size)
	go func() {
		defer s.wg.Done()
		t0 := nowNs()
		for k := int64(0); !s.stop.Load(); {
			now := nowNs()
			for due := t0 + k*int64(voipInterval); due <= now && !s.stop.Load(); due = t0 + k*int64(voipInterval) {
				seq := f.reserve()
				m := f.gen.fill(buf, seq, due)
				start := nowNs()
				if ph := s.ph.Load(); ph != nil && ph.in(due) {
					ph.expected.Add(1)
					ph.late.add(float64(start-due) / 1e3)
				}
				err := e.c.TrySend(m, opt)
				if s.tr.on.Load() {
					log.timeSend("TrySend", 0, f.gen.flow, seq, start)
				}
				if err != nil {
					f.refused.Add(1)
				}
				k++
			}
			sleepUntil(t0 + k*int64(voipInterval))
		}
	}()
}

// sleepUntil blocks its thread in nanosleep until the clock reaches t.
// The runtime's timers wake up to a millisecond late on Linux, which at a
// 1 ms send interval would make the pacer's own lateness the largest part
// of the one-way delay it measures; a kernel high-resolution sleep wakes
// within tens of microseconds.
func sleepUntil(t int64) {
	for {
		d := t - nowNs()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop re-reads the clock
	}
}

// wireSetLoss installs li as the process's datagram loss (nil removes it).
func wireSetLoss(li *lossInjector) {
	if li == nil {
		wire.SetFaultHooks(nil)
		return
	}
	wire.SetFaultHooks(&wire.FaultHooks{Write: li.writeHook})
}
