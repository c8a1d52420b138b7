package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"varbench"
	"varbench/store"
)

// A span is one timed call into a layer: its name, the interval in
// nanoseconds since the tracer started, the span that caused it (-1 for an
// op's root), the op it belongs to and one size argument (pairs, lines, n).
type span struct {
	name       string
	start, end int64
	parent     int32
	op         int32
	arg        int64
}

func (s span) dur() time.Duration { return time.Duration(s.end - s.start) }

// A tracer keeps spans in memory for the whole traced phase; write dumps
// them when the benchmark ends. A nil *tracer records nothing, so the
// untraced phase pays only a nil check at each call site.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	cur   int32 // innermost open span of the op goroutine; parent of wrapper spans
	op    int32

	lookups, hits atomic.Int64 // store Get/GetJSON outcomes
	batches       atomic.Int64 // Progress callbacks
}

func newTracer() *tracer { return &tracer{t0: time.Now(), cur: -1} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// startOp marks the beginning of op i: later spans carry its id.
func (t *tracer) startOp(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.op, t.cur = int32(i), -1
	t.mu.Unlock()
}

// enter opens a span on the op goroutine, nested under the current one;
// until its exit, spans from wrapper calls (any goroutine) are its children.
func (t *tracer) enter(name string, arg int64) int32 {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, start: start, end: -1, parent: t.cur, op: t.op, arg: arg})
	t.cur = id
	return id
}

// exit closes a span opened by enter.
func (t *tracer) exit(id int32) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].end = end
	t.cur = t.spans[id].parent
	t.mu.Unlock()
}

// record adds a finished child span of the current span. It is safe from
// any goroutine; wrappers call it after the wrapped call returns.
func (t *tracer) record(name string, start int64, arg int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: t.cur, op: t.op, arg: arg})
	t.mu.Unlock()
}

// durations returns the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

// selfTime returns, over every span named name, the total duration and the
// part of it that no child span covers. It fails if a child lies outside
// its parent, since self time plus children must account for the parent.
func (t *tracer) selfTime(name string) (total, self time.Duration, err error) {
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.parent >= 0 && t.spans[s.parent].name == name {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	for id, s := range t.spans {
		if s.name != name {
			continue
		}
		kids := children[int32(id)]
		for _, k := range kids {
			if k[0] < s.start || k[1] > s.end {
				return 0, 0, fmt.Errorf("%s span %d: child [%d,%d] outside [%d,%d]", name, id, k[0], k[1], s.start, s.end)
			}
		}
		total += s.dur()
		self += s.dur() - time.Duration(unionLen(kids))
	}
	return total, self, nil
}

// unionLen returns the length of the union of half-open intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, lo, hi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			lo, hi, open = v[0], v[1], true
		case v[0] > hi:
			total += hi - lo
			lo, hi = v[0], v[1]
		case v[1] > hi:
			hi = v[1]
		}
	}
	if open {
		total += hi - lo
	}
	return total
}

// write dumps the spans as CSV: name,start_ns,end_ns,parent,op,arg.
func (t *tracer) write(path string, host string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# %s\nname,start_ns,end_ns,parent,op,arg\n", host)
	for _, s := range t.spans {
		fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d\n", s.name, s.start, s.end, s.parent, s.op, s.arg)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceTrial wraps a pipeline so each call is a "pipeline" span.
func (t *tracer) traceTrial(f varbench.TrialFunc) varbench.TrialFunc {
	if t == nil {
		return f
	}
	return func(tr varbench.Trial) (float64, error) {
		start := t.now()
		v, err := f(tr)
		t.record("pipeline", start, 0)
		return v, err
	}
}

// progress is the Progress hook of traced runs: it counts collected batches.
func (t *tracer) progress(varbench.Progress) { t.batches.Add(1) }

// timedBackend decorates a store.Backend with one span per call.
type timedBackend struct {
	store.Backend
	t *tracer
}

// traceStore wraps b so every call is a "store.<Method>" span.
func (t *tracer) traceStore(b store.Backend) store.Backend {
	if t == nil {
		return b
	}
	return timedBackend{Backend: b, t: t}
}

func (b timedBackend) lookup(hit bool) {
	b.t.lookups.Add(1)
	if hit {
		b.t.hits.Add(1)
	}
}

func (b timedBackend) Get(key, fp string) (float64, bool) {
	start := b.t.now()
	v, ok := b.Backend.Get(key, fp)
	b.t.record("store.Get", start, 0)
	b.lookup(ok)
	return v, ok
}

func (b timedBackend) Put(key, fp string, score float64) error {
	start := b.t.now()
	err := b.Backend.Put(key, fp, score)
	b.t.record("store.Put", start, 0)
	return err
}

func (b timedBackend) GetJSON(key, fp string, v any) (bool, error) {
	start := b.t.now()
	ok, err := b.Backend.GetJSON(key, fp, v)
	b.t.record("store.GetJSON", start, 0)
	b.lookup(ok)
	return ok, err
}

func (b timedBackend) PutJSON(key, fp string, v any) error {
	start := b.t.now()
	err := b.Backend.PutJSON(key, fp, v)
	b.t.record("store.PutJSON", start, 0)
	return err
}

func (b timedBackend) Flush() error {
	start := b.t.now()
	err := b.Backend.Flush()
	b.t.record("store.Flush", start, 0)
	return err
}
