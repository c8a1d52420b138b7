package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"varbench"
	"varbench/store"
)

// collect runs Experiment.Run to a decision with near-free synthetic
// pipelines, so the incremental accumulator, the early-stop loop, the
// worker pool and store writes do the work. A deck of 16 ops holds 12 new
// experiments — three each at P(A>B) ≈ 0.5, ≈ γ and ≈ 1, two at ≈ 0.25 that
// stop for futility, one over four datasets — and 4 re-runs of an earlier
// op's exact spec, which read trials and restore analysis snapshots. Each
// deck writes to a fresh seglog store, so the store stays deck-sized.
type collect struct {
	rng    *rand.Rand
	st     store.Backend
	stName string
	deck   []collectOp
}

type collectOp struct {
	seed    uint64
	effects []float64 // one per dataset; a single entry is a one-dataset experiment
	rerunOf int       // index in the deck of the op this one repeats, or -1
	res     *varbench.Result
	json    []byte
}

// collectMaxRuns caps every experiment; Noether's N stops null effects first.
const collectMaxRuns = 64

// Effects in units of the paired difference's noise: P(A>B) = Φ(effect/0.85).
var (
	effNull     = 0.0
	effNearγ    = 0.57
	effClear    = 2.0
	effFutility = -0.6
)

func newCollect(seed uint64) workload {
	return &collect{rng: rand.New(rand.NewPCG(seed, 0xc011))}
}

func (w *collect) deckLen() int { return 16 }

func (w *collect) blockDecks() int { return 20 }

// synthetic is a near-free pipeline whose score derives from the trial's
// source seeds: the data-split seed gives a component both sides share, so
// pairing matters, and the init seed gives each side its own noise.
func synthetic(effect float64, side uint64) varbench.TrialFunc {
	return func(t varbench.Trial) (float64, error) {
		shared := gauss(t.SourceSeed(varbench.VarDataSplit))
		own := gauss(t.SourceSeed(varbench.VarInit) ^ side)
		return 0.8 + 0.05*(shared+effect+0.6*own), nil
	}
}

// gauss maps a seed to a standard normal draw (Box-Muller on splitmix64).
func gauss(seed uint64) float64 {
	a, b := splitmix(seed), splitmix(seed^0x9e3779b97f4a7c15)
	u := (float64(a>>11) + 0.5) / (1 << 53)
	v := float64(b>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (w *collect) experiment(p *phase, op *collectOp) varbench.Experiment {
	e := varbench.Experiment{
		Seed:        op.seed,
		MaxRuns:     collectMaxRuns,
		Parallelism: p.par,
		// A batch adds 8 pairs to the accumulator: sharding that small an
		// extension only adds goroutine hand-offs, which on a 2-vCPU VM made
		// the p99 follow the host's load from run to run.
		AnalysisParallelism: 1,
		Store:               w.st,
		// The store cannot hash code: the effects are part of the pipeline.
		PipelineID: fmt.Sprintf("perfbench/synthetic/effects=%v", op.effects),
	}
	if p.tr != nil {
		e.Progress = p.tr.progress
	}
	if len(op.effects) == 1 {
		e.ATrial = p.tr.traceTrial(synthetic(op.effects[0], 1))
		e.BTrial = p.tr.traceTrial(synthetic(0, 2))
		return e
	}
	for k, eff := range op.effects {
		e.Datasets = append(e.Datasets, varbench.Dataset{
			Name:   fmt.Sprint("ds", k),
			ATrial: p.tr.traceTrial(synthetic(eff, 1)),
			BTrial: p.tr.traceTrial(synthetic(0, 2)),
		})
	}
	return e
}

// setup opens the seglog store and warms up with one clear and one null
// experiment, the same at every seed.
func (w *collect) setup(p *phase) (time.Duration, error) {
	warm := []collectOp{{seed: warmSeed, effects: []float64{effClear}}, {seed: warmSeed + 1, effects: []float64{effNull}}}
	t0 := time.Now()
	if err := w.rotate(p, "store0"); err != nil {
		return 0, err
	}
	for i := range warm {
		if _, err := w.experiment(p, &warm[i]).Run(context.Background()); err != nil {
			return 0, err
		}
	}
	return time.Since(t0), nil
}

func (w *collect) prepare(p *phase, d int) error {
	if d > 0 {
		if err := p.dropStore(w.st, w.stName); err != nil {
			return err
		}
		if err := w.rotate(p, fmt.Sprint("store", d)); err != nil {
			return err
		}
	}
	w.deck = w.deck[:0]
	for _, c := range []struct {
		effects []float64
		count   int
	}{
		{[]float64{effNull}, 3}, {[]float64{effNearγ}, 3}, {[]float64{effClear}, 3},
		{[]float64{effFutility}, 2}, {[]float64{effNull, effNearγ, effClear, effFutility}, 1},
	} {
		for k := 0; k < c.count; k++ {
			w.deck = append(w.deck, collectOp{seed: w.rng.Uint64(), effects: c.effects, rerunOf: -1})
		}
	}
	w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	// Insert the re-runs, each somewhere after the op it repeats; later
	// insertions shift earlier indices, so link by seed and resolve after.
	for _, k := range w.rng.Perm(8)[:4] {
		orig := w.deck[k]
		at := k + 1 + w.rng.IntN(len(w.deck)-k)
		rerun := collectOp{seed: orig.seed, effects: orig.effects}
		w.deck = append(w.deck[:at], append([]collectOp{rerun}, w.deck[at:]...)...)
	}
	first := map[uint64]int{}
	for i := range w.deck {
		if j, ok := first[w.deck[i].seed]; ok {
			w.deck[i].rerunOf = j
		} else {
			first[w.deck[i].seed] = i
			w.deck[i].rerunOf = -1
		}
	}
	return nil
}

func (w *collect) run(p *phase, i int) (int, error) {
	op := &w.deck[i%len(w.deck)]
	e := w.experiment(p, op)
	sp := p.tr.enter("collect.Run", int64(len(op.effects)))
	res, err := e.Run(context.Background())
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	op.res = res
	p.pairs += res.Pairs
	if res.EarlyStopped {
		p.earlyStopped++
	}
	return res.Pairs, nil
}

// check: no trial was quarantined, no dataset collected more than MaxRuns
// pairs, each conclusion is consistent with the scores it reports, and a
// re-run is byte-identical (Elapsed zeroed) to the op it repeats.
func (w *collect) check(p *phase, i int) error {
	op := &w.deck[i%len(w.deck)]
	res := op.res
	if res.Quarantined != 0 || len(res.Datasets) != len(op.effects) {
		return fmt.Errorf("collect: %d quarantined, %d datasets for %d effects", res.Quarantined, len(res.Datasets), len(op.effects))
	}
	for _, d := range res.Datasets {
		c := d.Comparison
		if d.Pairs > collectMaxRuns || d.Pairs != c.N || len(d.ScoresA) != d.Pairs {
			return fmt.Errorf("collect: dataset %q: %d pairs, n=%d, %d scores, MaxRuns %d", d.Name, d.Pairs, c.N, len(d.ScoresA), collectMaxRuns)
		}
		if want := winFraction(d.ScoresA, d.ScoresB, false); math.Abs(c.PAB-want) > 1e-9 {
			return fmt.Errorf("collect: dataset %q: P(A>B)=%v, want win fraction %v", d.Name, c.PAB, want)
		}
		if err := checkComparison(c); err != nil {
			return fmt.Errorf("collect: dataset %q: %w", d.Name, err)
		}
	}
	zeroed := *res
	zeroed.Elapsed = 0
	b, err := json.Marshal(zeroed)
	if err != nil {
		return err
	}
	op.json = b
	if op.rerunOf >= 0 && !bytes.Equal(b, w.deck[op.rerunOf].json) {
		return fmt.Errorf("collect: re-run of deck op %d differs from the original", op.rerunOf)
	}
	return nil
}

func (w *collect) finish(p *phase) error { return nil }

// rotate opens the store the next ops write to.
func (w *collect) rotate(p *phase, name string) error {
	st, err := p.openStore(name)
	w.st, w.stName = st, name
	return err
}

func (w *collect) close(p *phase) error { return p.dropStore(w.st, w.stName) }
