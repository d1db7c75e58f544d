// Command perfbench is the repository's benchmark. It drives the public
// minion API over loopback sockets in one of three workloads, checks
// every message it delivers, and prints one JSON result line.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of an untraced run;
// with --trace 1 it runs half the time untraced and half traced, and
// reports the per-layer metrics of the traced half. See README.md for
// the workloads and every metric's definition.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"minion/internal/buf"
	"minion/internal/wire"
)

// setups is the fewest times a run sets its workload up (more when it
// measures more sessions); setup_s is the median. The last set-ups are
// the measured sessions.
const setups = 9

// outDir holds the run's report and span files, inside the checkout.
const outDir = ".bench_build/perfbench"

// profileHz is the traced half's CPU sampling rate.
const profileHz = 500

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		var names []string
		for _, c := range workloads {
			names = append(names, c.name)
		}
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w.name, *seed, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}

// metric is one reported value with its provenance.
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Samples int       `json:"samples"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	Raw     []float64 `json:"raw,omitempty"`
}

// result is everything a run reports.
type result struct {
	correct bool
	tally   // summed over every session
	metrics []metric
	host    map[string]any
	notes   []string
}

func (r *result) add(name, unit string, v float64, n int) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: finite(v), Samples: n})
}

// addRaw reports the median of raw with its quartiles and raw values.
func (r *result) addRaw(name, unit string, raw []float64) {
	q1, q2, q3 := quartiles(raw)
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: finite(q2), Samples: len(raw), Q1: finite(q1), Q3: finite(q3), Raw: raw})
}

// tick is a snapshot of the cumulative counters at a slice boundary.
type tick struct {
	t         int64
	user, sys time.Duration
	msgs      int64 // messages delivered, every flow
	sent      int64 // messages handed to the transport, every flow
	exch      int64 // completed exchanges
	good      int64 // goodput payload bytes
}

func (s *session) tick() tick {
	tk := tick{t: nowNs()}
	tk.user, tk.sys = rusage()
	for _, f := range s.flows {
		tk.msgs += f.check.unique.Load()
		tk.sent += f.sent.Load()
	}
	tk.exch = s.exchanges.check.unique.Load()
	for _, f := range s.goodput {
		tk.good += f.check.bytes.Load()
	}
	return tk
}

// measure runs one phase of length d, ticking every second.
func (s *session) measure(d time.Duration) (*phase, []tick) {
	n := int(d / time.Second)
	if n < 1 {
		n = 1
	}
	slice := d / time.Duration(n)
	ph := newPhase()
	s.ph.Store(ph)
	ph.begin()
	ticks := []tick{s.tick()}
	start := time.Now()
	for i := 1; i <= n; i++ {
		time.Sleep(time.Until(start.Add(time.Duration(i) * slice)))
		ticks = append(ticks, s.tick())
	}
	ph.end.Store(nowNs())
	return ph, ticks
}

// layerSnap is the process-wide and per-connection counter state at one
// instant of the traced phase.
type layerSnap struct {
	tk    tick
	io    wire.IOStats
	pool  buf.PoolStats
	mem   runtime.MemStats
	conns []connStats
}

func (s *session) layerSnap() (layerSnap, error) {
	var ls layerSnap
	for _, e := range s.eps {
		st, err := e.snapshot()
		if err != nil {
			return ls, err
		}
		ls.conns = append(ls.conns, st)
	}
	ls.tk = s.tick()
	ls.io = wire.ReadIOStats()
	ls.pool = buf.Stats()
	runtime.ReadMemStats(&ls.mem)
	return ls, nil
}

func run(w *workload, seed int64, window time.Duration, traced bool) (*result, error) {
	in, err := w.prepare(seed)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true}
	tr := &tracer{}
	sl := &setupLog{}
	// An untraced run splits its window over the last w.sessions set-ups,
	// so a connection that lands in a slow scheduling pattern for its
	// lifetime is one vote of several; a traced run measures the last.
	measured := w.sessions
	if traced {
		measured = 1
	}
	per := window / time.Duration(measured)
	var setupS []float64
	var sessions [][]metric
	io0 := wire.ReadIOStats()
	total := max(setups, measured)
	for i := 0; i < total; i++ {
		s := &session{seed: seed, tr: tr, setup: sl}
		sp, err := sl.phase("setup", 0, func(id uint64) error {
			s.root = id
			return w.open(s, in)
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, sp.dur().Seconds())
		if i < total-measured {
			res.account(s.shutdown(w.drain))
			continue
		}
		if res.host == nil {
			res.host = hostInfo(s, wire.ReadIOStats().PollWakeups > io0.PollWakeups)
		}
		if w.armLoss {
			// Each measured session gets its own loss pattern, so the
			// median over sessions is a median over patterns.
			s.loss = newLossInjector(seed*1000+int64(i), lossRate)
			wireSetLoss(s.loss)
		}
		time.Sleep(w.leadIn)
		if !traced {
			ph, ticks := s.measure(per)
			res.account(s.shutdown(w.drain))
			sessions = append(sessions, sessionMetrics(ph, ticks))
			continue
		}
		if err := res.traced(w, s, sl, window, seed); err != nil {
			return nil, err
		}
	}
	if !traced {
		res.endToEnd(setupS, sessions)
	}
	res.check()
	return res, nil
}

// traced measures session s in two halves, untraced then traced, and
// reports the per-layer metrics from the traced half's counters, spans
// and CPU profile.
func (r *result) traced(w *workload, s *session, sl *setupLog, window time.Duration, seed int64) error {
	half := window / 2
	if half < time.Second {
		half = time.Second
	}
	_, ticksA := s.measure(half)
	before, err := s.layerSnap()
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	// A finer rate than pprof's default 100 Hz, so a layer using a few
	// percent of a lightly loaded run still gets samples. The runtime
	// notes on stderr that the rate was set before the profile started.
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	s.tr.on.Store(true)
	if s.loss != nil {
		s.loss.record.Store(true)
	}
	phB, _ := s.measure(half)
	s.tr.on.Store(false)
	if s.loss != nil {
		s.loss.record.Store(false)
	}
	pprof.StopCPUProfile()
	after, err := s.layerSnap()
	if err != nil {
		return err
	}
	goroutines := runtime.NumGoroutine()
	r.account(s.shutdown(w.drain))

	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	r.perLayer(layerInputs{
		s: s, b: phB, ticksA: ticksA,
		before: before, after: after, goroutines: goroutines,
		profile: p, setup: sl, tls: w.name == "bulk-utls-tcp",
	})
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.spans.jsonl", w.name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	n, err := s.tr.write(path, sl.spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	r.notes = append(r.notes, fmt.Sprintf("%d spans written to %s", n, path))
	return nil
}

// account adds one session's counts to the run's.
func (r *result) account(t tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.lost += t.lost
	r.stalls += t.stalls
}

// check fails the run when a reliable stack lost, duplicated or
// corrupted an accepted message, and reports TrySend stalls.
func (r *result) check() {
	if r.lost != 0 {
		r.correct = false
		fmt.Fprintf(os.Stderr, "perfbench: %d accepted messages were not delivered intact exactly once\n", r.lost)
	}
	if r.attempted < 1 {
		r.correct = false
	}
	if r.stalls != 0 {
		msg := fmt.Sprintf("%d TrySend queue stalls: no send completed for %v while a blocking Send went through", r.stalls, stallAfter)
		r.notes = append(r.notes, msg)
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
	}
}

// sessionMetrics computes one measured session's end-to-end values, in
// report order; setup_s and delivered_frac are run-wide and added by
// endToEnd.
func sessionMetrics(ph *phase, ticks []tick) []metric {
	rtt, owd := ph.rtt.sorted(), ph.owd.sorted()
	exp := ph.expected.Load()
	met := float64(ph.owd.countAtMost(float64(deadline/time.Microsecond))) / float64(exp)
	slices := len(ticks) - 1
	return []metric{
		{Name: "cpu_us_per_msg", Unit: "us", Value: cpuPerMsg(ticks), Samples: slices},
		{Name: "rpc_per_s", Unit: "1/s", Value: exchPerS(ticks), Samples: slices},
		{Name: "rtt_p50_us", Unit: "us", Value: percentile(rtt, 50), Samples: len(rtt)},
		{Name: "rtt_p99_us", Unit: "us", Value: percentile(rtt, 99), Samples: len(rtt)},
		{Name: "goodput_mb_s", Unit: "MB/s", Value: goodputMBs(ticks), Samples: slices},
		{Name: "owd_p50_us", Unit: "us", Value: percentile(owd, 50), Samples: len(owd)},
		{Name: "owd_p99_us", Unit: "us", Value: percentile(owd, 99), Samples: len(owd)},
		{Name: "deadline_met_frac", Unit: "frac", Value: met, Samples: int(exp)},
	}
}

// endToEnd reports the end-to-end metrics: set-up time as the median over
// every set-up, delivery over every session, and each other metric as
// the median over the measured sessions, with their values kept raw.
func (r *result) endToEnd(setupS []float64, sessions [][]metric) {
	r.addRaw("setup_s", "s", setupS)
	r.add("delivered_frac", "frac", 1-float64(r.failed)/float64(r.attempted), int(r.attempted))
	for i, m := range sessions[0] {
		var raw []float64
		n := 0
		for _, s := range sessions {
			raw = append(raw, s[i].Value)
			n += s[i].Samples
		}
		r.addRaw(m.Name, m.Unit, raw)
		r.metrics[len(r.metrics)-1].Samples = n
	}
}

// hostInfo describes the machine and the connections' loop shapes.
func hostInfo(s *session, polled bool) map[string]any {
	var uts syscall.Utsname
	kernel := ""
	if syscall.Uname(&uts) == nil {
		var b []byte
		for _, c := range uts.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	var conns []map[string]string
	for _, e := range s.eps {
		mode := "dedicated"
		switch {
		case e.transport == "udp":
			mode = "udp-loop"
		case polled:
			mode = "poll"
		}
		conns = append(conns, map[string]string{"conn": e.name, "transport": e.transport, "loop": mode})
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"conns":      conns,
	}
}

// print writes the full report (one line, also saved under outDir) and
// then the result line.
func (r *result) print(out *os.File, workload string, seed int64, traced bool) error {
	report := map[string]any{
		"workload":  workload,
		"seed":      seed,
		"trace":     traced,
		"host":      r.host,
		"correct":   r.correct,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   r.metrics,
		"notes":     r.notes,
	}
	rb, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err == nil {
		name := fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, map[bool]int{false: 0, true: 1}[traced])
		if err := os.WriteFile(filepath.Join(outDir, name), append(rb, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: report not saved: %v\n", err)
		}
	}
	for _, m := range r.metrics {
		fmt.Fprintf(out, "%-34s %14.6g %-6s n=%d\n", m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintln(out, string(rb))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, string(line))
	return err
}
