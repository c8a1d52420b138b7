package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"varbench"
)

// analyze is the `varbench compare` path: one-shot bootstrap analyses of
// externally collected scores at K=1000. A deck of 100 ops is heavy-tailed
// in n and mostly small; it mixes paired, unpaired (WithUnpaired, whose cost
// grows as n², so only at small n) and five-dataset AnalyzeDatasets ops.
// Scores at n ≥ 1000 are item-level 0/1 correctness, full of ties.
type analyze struct {
	rng  *rand.Rand
	deck []analyzeOp
}

type analyzeOp struct {
	mode string // paired, unpaired or multi
	n    int
	seed uint64
	data []varbench.DatasetScores
	res  *varbench.Result
}

// analyzeDeck is the op mix of one deck: count ops of each (mode, n).
var analyzeDeck = []struct {
	mode     string
	n, count int
}{
	{"paired", 10, 30}, {"paired", 29, 28}, {"paired", 100, 14},
	{"paired", 1000, 8}, {"paired", 10000, 4},
	{"unpaired", 10, 4}, {"unpaired", 29, 2},
	{"multi", 10, 4}, {"multi", 29, 4}, {"multi", 100, 2},
}

// analyzeRecheckEvery selects the ops re-run at AnalysisParallelism 1.
const analyzeRecheckEvery = 25

func newAnalyze(seed uint64) workload {
	return &analyze{rng: rand.New(rand.NewPCG(seed, 0xa11a))}
}

func (w *analyze) deckLen() int { return 100 }

func (w *analyze) blockDecks() int { return 5 }

func (w *analyze) opts(op *analyzeOp, par int) []varbench.Option {
	o := []varbench.Option{varbench.WithBootstrap(bootstrapK), varbench.WithSeed(op.seed), varbench.WithAnalysisParallelism(par)}
	if op.mode == "unpaired" {
		o = append(o, varbench.WithUnpaired())
	}
	return o
}

// setup has no store or stream to open: it is the warm-up, one analysis of
// each kind of op, on the same inputs at every seed.
func (w *analyze) setup(p *phase) (time.Duration, error) {
	fixed := newAnalyze(warmSeed).(*analyze)
	var warm []analyzeOp
	for _, c := range analyzeDeck {
		warm = append(warm, fixed.makeOp(c.mode, c.n))
	}
	t0 := time.Now()
	for i := range warm {
		if _, err := w.call(p, &warm[i], p.par); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (w *analyze) prepare(p *phase, d int) error {
	w.deck = w.deck[:0]
	for _, c := range analyzeDeck {
		for k := 0; k < c.count; k++ {
			w.deck = append(w.deck, w.makeOp(c.mode, c.n))
		}
	}
	w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	return nil
}

// makeOp draws one op's scores. The effect varies per op (and per dataset)
// so conclusions span all three zones.
func (w *analyze) makeOp(mode string, n int) analyzeOp {
	op := analyzeOp{mode: mode, n: n, seed: w.rng.Uint64()}
	datasets := 1
	if mode == "multi" {
		datasets = 5
	}
	for k := 0; k < datasets; k++ {
		a, b := w.scores(n)
		name := ""
		if datasets > 1 {
			name = fmt.Sprint("d", k)
		}
		op.data = append(op.data, varbench.DatasetScores{Name: name, ScoresA: a, ScoresB: b})
	}
	return op
}

func (w *analyze) scores(n int) (a, b []float64) {
	a, b = make([]float64, n), make([]float64, n)
	effect := w.rng.Float64()*1.2 - 0.3
	if n >= 1000 {
		// Item-level correctness: a shared item difficulty pairs A and B.
		skill := 0.3 * effect
		for i := range a {
			diff := w.rng.NormFloat64()
			a[i] = bernoulli(w.rng, 0.4+skill-diff)
			b[i] = bernoulli(w.rng, 0.4-diff)
		}
		return a, b
	}
	round := w.rng.IntN(2) == 0 // accuracy-like scores on a 1% grid tie
	for i := range a {
		shared := w.rng.NormFloat64()
		a[i] = 0.8 + 0.05*(shared+effect+0.6*w.rng.NormFloat64())
		b[i] = 0.8 + 0.05*(shared+0.6*w.rng.NormFloat64())
		if round {
			a[i], b[i] = math.Round(a[i]*100)/100, math.Round(b[i]*100)/100
		}
	}
	return a, b
}

func bernoulli(r *rand.Rand, logit float64) float64 {
	if r.Float64() < 1/(1+math.Exp(-logit)) {
		return 1
	}
	return 0
}

// call runs one analysis and renders it, with spans when traced.
func (w *analyze) call(p *phase, op *analyzeOp, par int) (*varbench.Result, error) {
	sp := p.tr.enter("analyze."+op.mode, int64(op.n))
	var res *varbench.Result
	var err error
	if op.mode == "multi" {
		res, err = varbench.AnalyzeDatasets(op.data, w.opts(op, par)...)
	} else {
		res, err = varbench.Analyze(op.data[0].ScoresA, op.data[0].ScoresB, w.opts(op, par)...)
	}
	p.tr.exit(sp)
	if err != nil {
		return nil, err
	}
	rs := p.tr.enter("render", 0)
	err = res.Render(io.Discard, varbench.TextRenderer{})
	p.tr.exit(rs)
	return res, err
}

func (w *analyze) run(p *phase, i int) (int, error) {
	op := &w.deck[i%len(w.deck)]
	res, err := w.call(p, op, p.par)
	op.res = res
	return op.n * len(op.data), err
}

// check verifies what holds under any bootstrap engine: P(A>B) is the win
// fraction with ties at ½, the CI lies in [0,1], the conclusion follows the
// three-zone rule, and sampled ops are byte-identical at
// AnalysisParallelism 1.
func (w *analyze) check(p *phase, i int) error {
	op := &w.deck[i%len(w.deck)]
	res := op.res
	if len(res.Datasets) != len(op.data) {
		return fmt.Errorf("analyze: %d datasets in, %d out", len(op.data), len(res.Datasets))
	}
	for k, d := range res.Datasets {
		in := op.data[k]
		c := d.Comparison
		want := winFraction(in.ScoresA, in.ScoresB, op.mode == "unpaired")
		if math.Abs(c.PAB-want) > 1e-9 || d.Name != in.Name || c.N != op.n {
			return fmt.Errorf("analyze %s n=%d dataset %q: P(A>B)=%v n=%d, want win fraction %v n=%d", op.mode, op.n, d.Name, c.PAB, c.N, want, op.n)
		}
		if err := checkComparison(c); err != nil {
			return fmt.Errorf("analyze %s n=%d: %w", op.mode, op.n, err)
		}
	}
	if i%analyzeRecheckEvery != 0 {
		return nil
	}
	serial, err := w.call(&phase{}, op, 1)
	if err != nil {
		return err
	}
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	want, err := json.Marshal(serial)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("analyze %s n=%d: result differs at AnalysisParallelism 1", op.mode, op.n)
	}
	return nil
}

// checkComparison checks a conclusion against its own interval: the CI lies
// in [0,1] and the three-zone rule of Appendix C.6 gives its conclusion.
func checkComparison(c varbench.Comparison) error {
	if !(0 <= c.CILo && c.CILo <= c.CIHi && c.CIHi <= 1) {
		return fmt.Errorf("CI [%v, %v] not within [0,1]", c.CILo, c.CIHi)
	}
	want := varbench.SignificantAndMeaningful
	switch {
	case c.CILo <= 0.5:
		want = varbench.NotSignificant
	case c.CIHi <= c.Gamma:
		want = varbench.SignificantNotMeaningful
	}
	if c.Conclusion != want {
		return fmt.Errorf("conclusion %q for CI [%v, %v] at γ=%v, want %q", c.Conclusion, c.CILo, c.CIHi, c.Gamma, want)
	}
	return nil
}

// winFraction is P(A>B) counted directly: over pairs (a[i], b[i]), or over
// all (a[i], b[j]) when unpaired, with ties counting ½.
func winFraction(a, b []float64, unpaired bool) float64 {
	var wins float64
	if !unpaired {
		for i := range a {
			switch {
			case a[i] > b[i]:
				wins++
			case a[i] == b[i]:
				wins += 0.5
			}
		}
		return wins / float64(len(a))
	}
	s := append([]float64(nil), b...)
	sort.Float64s(s)
	for _, x := range a {
		below := sort.SearchFloat64s(s, x)
		equal := sort.SearchFloat64s(s, math.Nextafter(x, math.Inf(1))) - below
		wins += float64(below) + 0.5*float64(equal)
	}
	return wins / float64(len(a)*len(b))
}

func (w *analyze) finish(p *phase) error { return nil }

func (w *analyze) close(p *phase) error { return nil }
