package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Name is
// "<layer>.<call>"; Parent is the enclosing span's ID (0 at the root) and
// Op the arrival index of the serve op it belongs to (-1 outside the op
// sequence). Start and End are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's prefix: the module the call went into.
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory for the traced run and writes them out at
// exit. A nil *tracer records nothing, so the timed code paths can share
// the traced ones without paying for spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	cur   int // innermost open span on the tracing goroutine
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.cur, Op: t.op, Name: name, Start: time.Since(t.t0)})
	t.cur = id
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0)
	t.cur = s.Parent
	return s.dur()
}

// record adds a closed span that ended now and lasted d, under the
// innermost open span: the store reports fsyncs after the fact through
// its sync observer.
func (t *tracer) record(name string, d time.Duration) { t.recordEnded(name, time.Now(), d) }

// recordEnded adds a closed span that ended at end and lasted d, under
// the innermost open span: the roster's calls report their durations
// only once they return.
func (t *tracer) recordEnded(name string, end time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := end.Sub(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: t.cur, Op: t.op, Name: name, Start: e - d, End: e})
}

// setOp tags the spans that follow with an arrival index (-1 clears it).
func (t *tracer) setOp(k int) {
	if t != nil {
		t.mu.Lock()
		t.op = k
		t.mu.Unlock()
	}
}

// durations returns the durations of every span with this name.
func (t *tracer) durations(name string, unit time.Duration) *samples {
	out := &samples{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			out.addDur(s.dur(), unit)
		}
	}
	return out
}

// selfTimes returns each layer's self time: every span's duration minus
// the part of its interval that its child spans cover (overlapping
// children, as from parallel calls, count once), summed per layer.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer()] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
