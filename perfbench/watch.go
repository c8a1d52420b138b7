package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"time"

	"varbench"
	"varbench/store"
)

// watch is the `varbench watch -file F -every N` path: before each deck a
// producer appends a,b CSV lines to a score file, and each op reads one
// appended batch of lines, feeds it through LineTailer and ParseScorePair,
// extends the Stream, takes its Result and renders it. The last op of every
// deck also flushes the stream's snapshot to a seglog store. Every
// watchSessionDecks decks the file is complete — about 250 000 lines — and
// the next ops watch a new file with a new stream, so memory and n follow
// the same course in every run.
type watch struct {
	rng *rand.Rand
	st  store.Backend
	s   *watchSession
	err error // first failed end-of-session check

	sizes  []int // lines per batch of the current deck
	nbytes []int // bytes per batch of the current deck
	buf    []byte
	batchA []float64
	batchB []float64
}

// A watchSession is one score file and the stream watching it.
type watchSession struct {
	id     int
	stream *varbench.Stream
	path   string
	in     *os.File // the watcher's read handle
	out    *os.File // the producer's append handle
	tailer varbench.LineTailer

	// Every pair the producer wrote, and the win count over the pairs read.
	allA, allB []float64
	read       int
	wins       float64
	last       *varbench.Result
}

// watchDeck is the batch-size mix of one deck: count batches of lines each.
var watchDeck = []struct{ lines, count int }{{20, 16}, {100, 16}, {250, 12}, {500, 6}}

const watchSessionDecks = 32

func newWatch(seed uint64) workload {
	return &watch{rng: rand.New(rand.NewPCG(seed, 0x3a7c))}
}

func (w *watch) deckLen() int { return 50 }

func (w *watch) blockDecks() int { return 2 }

// opts are the stream options; session ≥ 0 attaches the store under that
// session's ID.
func (w *watch) opts(p *phase, session int) []varbench.Option {
	o := []varbench.Option{varbench.WithBootstrap(bootstrapK), varbench.WithSeed(p.seed), varbench.WithAnalysisParallelism(p.par)}
	if session >= 0 {
		o = append(o, varbench.WithStore(w.st), varbench.WithPipelineID(fmt.Sprint("perfbench/watch/", session)))
	}
	return o
}

// openSession creates the next score file and opens a stream on it,
// returning the time NewStream took.
func (w *watch) openSession(p *phase, id int) (time.Duration, error) {
	s := &watchSession{id: id, path: filepath.Join(p.dir, fmt.Sprintf("scores%d.csv", id))}
	lines := 0
	for _, c := range watchDeck {
		lines += watchSessionDecks * c.lines * c.count
	}
	s.allA, s.allB = make([]float64, 0, lines), make([]float64, 0, lines)
	var err error
	if s.out, err = os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return 0, err
	}
	if s.in, err = os.Open(s.path); err != nil {
		s.out.Close()
		return 0, err
	}
	w.s = s
	t0 := time.Now()
	s.stream, err = varbench.NewStream(w.opts(p, id)...)
	return time.Since(t0), err
}

// endSession closes the session and deletes its file, after checking its
// final result against a one-shot Extend of every pair it read if check.
// Freed memory goes back to the OS before the check and after the session,
// so the run's peak RSS does not hinge on where the last GC fell.
func (w *watch) endSession(p *phase, check bool) {
	s := w.s
	if check {
		debug.FreeOSMemory()
		if err := w.checkSession(p); err != nil && w.err == nil {
			w.err = err
		}
	}
	w.s = nil
	s.stream.Close()
	s.in.Close()
	s.out.Close()
	os.Remove(s.path)
	debug.FreeOSMemory()
}

// setup opens the store and the first stream, and warms up on a throwaway
// stream.
func (w *watch) setup(p *phase) (time.Duration, error) {
	warmA, warmB := (&watch{rng: rand.New(rand.NewPCG(warmSeed, 0))}).pairs(64)
	t0 := time.Now()
	var err error
	if w.st, err = p.openStore("store"); err != nil {
		return 0, err
	}
	opened := time.Since(t0)
	newStream, err := w.openSession(p, 0)
	if err != nil {
		return 0, err
	}
	t0 = time.Now()
	warm, err := varbench.NewStream(w.opts(p, -1)...)
	if err != nil {
		return 0, err
	}
	if _, err := warm.Extend(warmA, warmB); err != nil {
		return 0, err
	}
	res, err := warm.Result()
	if err != nil {
		return 0, err
	}
	if err := res.Render(io.Discard, varbench.TextRenderer{}); err != nil {
		return 0, err
	}
	return opened + newStream + time.Since(t0), warm.Close()
}

// pairs draws n paired scores with a shared per-trial component, rounded to
// the four decimals the score file carries.
func (w *watch) pairs(n int) (a, b []float64) {
	effect := 0.3
	for i := 0; i < n; i++ {
		shared := w.rng.NormFloat64()
		x := 0.8 + 0.05*(shared+effect+w.rng.NormFloat64())
		y := 0.8 + 0.05*(shared+w.rng.NormFloat64())
		a = append(a, math.Round(x*1e4)/1e4)
		b = append(b, math.Round(y*1e4)/1e4)
	}
	return a, b
}

// prepare starts a new session every watchSessionDecks decks and appends
// the deck's lines to the score file.
func (w *watch) prepare(p *phase, d int) error {
	if d > 0 && d%watchSessionDecks == 0 {
		w.endSession(p, true)
		if _, err := w.openSession(p, d/watchSessionDecks); err != nil {
			return err
		}
	}
	w.sizes = w.sizes[:0]
	for _, c := range watchDeck {
		for k := 0; k < c.count; k++ {
			w.sizes = append(w.sizes, c.lines)
		}
	}
	w.rng.Shuffle(len(w.sizes), func(i, j int) { w.sizes[i], w.sizes[j] = w.sizes[j], w.sizes[i] })
	w.nbytes = w.nbytes[:0]
	var text []byte
	s := w.s
	for _, n := range w.sizes {
		before := len(text)
		a, b := w.pairs(n)
		for i := range a {
			text = strconv.AppendFloat(text, a[i], 'f', 4, 64)
			text = append(text, ',')
			text = strconv.AppendFloat(text, b[i], 'f', 4, 64)
			text = append(text, '\n')
		}
		s.allA, s.allB = append(s.allA, a...), append(s.allB, b...)
		w.nbytes = append(w.nbytes, len(text)-before)
	}
	_, err := s.out.Write(text)
	return err
}

func (w *watch) run(p *phase, i int) (int, error) {
	s := w.s
	j := i % w.deckLen()
	w.buf = w.buf[:0]
	if cap(w.buf) < w.nbytes[j] {
		w.buf = make([]byte, w.nbytes[j])
	}
	chunk := w.buf[:w.nbytes[j]]
	if _, err := io.ReadFull(s.in, chunk); err != nil {
		return 0, err
	}
	w.batchA, w.batchB = w.batchA[:0], w.batchB[:0]
	sp := p.tr.enter("tail.Feed", int64(w.sizes[j]))
	err := s.tailer.Feed(chunk, func(line []byte) error {
		a, b, ok, err := varbench.ParseScorePair(line)
		if err != nil {
			return err
		}
		if ok {
			w.batchA = append(w.batchA, a)
			w.batchB = append(w.batchB, b)
		}
		return nil
	})
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	sp = p.tr.enter("stream.Extend", int64(len(w.batchA)))
	_, err = s.stream.Extend(w.batchA, w.batchB)
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	sp = p.tr.enter("stream.Result", 0)
	res, err := s.stream.Result()
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	sp = p.tr.enter("render", 0)
	err = res.Render(io.Discard, varbench.TextRenderer{})
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	if j == w.deckLen()-1 {
		sp = p.tr.enter("stream.Flush", 0)
		err = s.stream.Flush()
		p.tr.exit(sp)
	}
	s.last = res
	return len(w.batchA), err
}

// check: the stream consumed exactly the lines written so far, P(A>B) is
// their win fraction, and the conclusion follows from the CI.
func (w *watch) check(p *phase, i int) error {
	s := w.s
	n := s.read + w.sizes[i%w.deckLen()]
	for k := s.read; k < n; k++ {
		switch {
		case s.allA[k] > s.allB[k]:
			s.wins++
		case s.allA[k] == s.allB[k]:
			s.wins += 0.5
		}
	}
	s.read = n
	c := s.last.Comparison
	if s.stream.N() != n || c.N != n {
		return fmt.Errorf("watch: stream holds %d pairs, result n=%d, want %d", s.stream.N(), c.N, n)
	}
	if want := s.wins / float64(n); math.Abs(c.PAB-want) > 1e-9 {
		return fmt.Errorf("watch: P(A>B)=%v after %d pairs, want win fraction %v", c.PAB, n, want)
	}
	return checkComparison(c)
}

// checkSession checks that the session's last result equals a one-shot
// Extend of every pair it read.
func (w *watch) checkSession(p *phase) error {
	s := w.s
	if s.last == nil {
		return fmt.Errorf("watch: session %d has no result", s.id)
	}
	oneShot, err := varbench.NewStream(w.opts(p, -1)...)
	if err != nil {
		return err
	}
	defer oneShot.Close()
	if _, err := oneShot.Extend(s.allA[:s.read], s.allB[:s.read]); err != nil {
		return err
	}
	want, err := oneShot.Result()
	if err != nil {
		return err
	}
	gotJSON, err := resultJSON(s.last)
	if err != nil {
		return err
	}
	wantJSON, err := resultJSON(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		return fmt.Errorf("watch: session %d: streamed result over %d pairs differs from a one-shot Extend", s.id, s.read)
	}
	return nil
}

// resultJSON encodes r, with the score lists (which both sides hold as
// copies of the same input) replaced by their length and a hash of their
// bits, so the comparison costs no large encoding.
func resultJSON(r *varbench.Result) ([]byte, error) {
	c := *r
	c.Datasets = append([]varbench.DatasetResult(nil), r.Datasets...)
	for i := range c.Datasets {
		d := &c.Datasets[i]
		d.Name += fmt.Sprintf(" scores=%d/%x", len(d.ScoresA), hashScores(d.ScoresA, d.ScoresB))
		d.ScoresA, d.ScoresB = nil, nil
	}
	return json.Marshal(c)
}

// hashScores is FNV-1a over the bits of a then b.
func hashScores(a, b []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, s := range [][]float64{a, b} {
		for _, x := range s {
			h = (h ^ math.Float64bits(x)) * 1099511628211
		}
	}
	return h
}

// finish ends the last session and reports the first failed session check.
func (w *watch) finish(p *phase) error {
	w.endSession(p, true)
	return w.err
}

func (w *watch) close(p *phase) error {
	if w.s != nil {
		w.endSession(p, false)
	}
	return p.dropStore(w.st, "store")
}
