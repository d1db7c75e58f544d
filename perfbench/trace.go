package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// base is the run's clock origin; every timestamp the benchmark writes is
// nanoseconds since base on the monotonic clock.
var base = time.Now()

func nowNs() int64 { return int64(time.Since(base)) }

// span is one call the benchmark made into a layer: its name, interval,
// the span that caused it, and the message it concerned (req is the
// message's sequence number; flow tells flows apart).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Flow   uint32 `json:"flow,omitempty"`
	Req    uint64 `json:"req"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// spanLog is a single-writer span buffer, one per recording goroutine (a
// connection's loop or a generator), so recording takes no lock. It keeps
// the first maxSpans spans for the span file and the duration of every
// send call for the send-call percentiles.
type spanLog struct {
	id     uint64 // high bits of every span id this log issues
	next   uint64
	spans  []span
	sendUs samples // durations of Send/TrySend calls, µs
	total  int64   // spans recorded, kept or not
}

const maxSpans = 1 << 15

// tracer owns the span logs of a run. on is read by every recording site;
// it is set before a traced phase starts and cleared after it ends, with
// the generators' own synchronization ordering the two.
type tracer struct {
	on   atomic.Bool
	mu   sync.Mutex
	logs []*spanLog
}

func (t *tracer) newLog() *spanLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := &spanLog{id: uint64(len(t.logs)+1) << 40}
	t.logs = append(t.logs, l)
	return l
}

// begin opens a span and returns its id and its index (-1 once the log
// is full); finish closes it.
func (l *spanLog) begin(name string, parent uint64, flow uint32, req uint64) (uint64, int) {
	l.next++
	l.total++
	id := l.id | l.next
	if len(l.spans) >= maxSpans {
		return id, -1
	}
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: nowNs(), Flow: flow, Req: req})
	return id, len(l.spans) - 1
}

// finish closes the span begin returned, naming the message it handled.
func (l *spanLog) finish(idx int, req uint64) {
	if idx >= 0 {
		l.spans[idx].End = nowNs()
		l.spans[idx].Req = req
	}
}

// timeSend records a send call that ran from start to now.
func (l *spanLog) timeSend(name string, parent uint64, flow uint32, req uint64, start int64) {
	end := nowNs()
	l.next++
	l.total++
	l.sendUs.add(float64(end-start) / 1e3)
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, span{ID: l.id | l.next, Parent: parent, Name: name, Start: start, End: end, Flow: flow, Req: req})
	}
}

// sendCallUs merges every log's send-call durations.
func (t *tracer) sendCallUs() []float64 {
	var all []float64
	for _, l := range t.logs {
		all = append(all, l.sendUs.sorted()...)
	}
	return all
}

// write stores the set-up spans and every kept span, one JSON object per
// line.
func (t *tracer) write(path string, setup []span) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	all := [][]span{setup}
	for _, l := range t.logs {
		all = append(all, l.spans)
	}
	for _, spans := range all {
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				f.Close()
				return n, err
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("close span file: %w", err)
	}
	return n, nil
}

// setupLog records the set-up phases of every session; it is written by
// the harness goroutine only.
type setupLog struct {
	spans []span
	next  uint64
}

// phase runs fn as a named set-up phase under parent and returns its span.
func (s *setupLog) phase(name string, parent uint64, fn func(id uint64) error) (span, error) {
	s.next++
	sp := span{ID: s.next, Parent: parent, Name: name, Start: nowNs()}
	err := fn(sp.ID)
	sp.End = nowNs()
	s.spans = append(s.spans, sp)
	return sp, err
}

// medianMs returns the median duration in ms of the spans called name.
func (s *setupLog) medianMs(name string) float64 {
	var d []float64
	for _, sp := range s.spans {
		if sp.Name == name {
			d = append(d, float64(sp.dur())/1e6)
		}
	}
	if len(d) == 0 {
		return 0
	}
	return median(d)
}
