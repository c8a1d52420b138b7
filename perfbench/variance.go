package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"time"

	"varbench"
	"varbench/internal/casestudy"
	"varbench/internal/experiments"
	"varbench/internal/hpo"
	"varbench/internal/pipeline"
	"varbench/internal/xrand"
	"varbench/store"
)

// variance runs successive VarianceStudy.Runs on casestudy.Tiny at distinct
// seeds, with a seglog store and the pipeline `varbench variance` builds. An
// op is one study probing one of Tiny's five sources at K=2 and two
// realizations: 4 trained MLPs, plus the joint row, which for one source is
// the same cells served from the store. A deck probes each source once.
// Real training dominates, so analysis and store changes should not move
// this workload.
type variance struct {
	rng    *rand.Rand
	st     store.Backend
	task   *casestudy.Study
	params hpo.Params
	deck   []varianceOp
	first  *varianceOp // re-run at Parallelism 1 when the phase ends
	json   []byte
}

type varianceOp struct {
	seed    uint64
	sources []varbench.Source
	rep     *varbench.VarianceReport
}

const (
	varianceK            = 2
	varianceRealizations = 2
)

func newVariance(seed uint64) workload {
	return &variance{rng: rand.New(rand.NewPCG(seed, 0x7a12))}
}

func (w *variance) deckLen() int { return 5 }

func (w *variance) blockDecks() int { return 7 }

// setup opens the store, builds the Tiny case study and warms up with one
// training run.
func (w *variance) setup(p *phase) (time.Duration, error) {
	t0 := time.Now()
	st, err := p.openStore("store")
	if err != nil {
		return 0, err
	}
	w.st = st
	w.task = casestudy.Tiny(experiments.StructSeed)
	w.params = w.task.Defaults()
	if _, err := pipeline.RunWithParams(w.task, w.params, xrand.NewStreams(warmSeed)); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// measure is one full pipeline run under the trial's per-source seeds, as
// `varbench variance` builds it.
func (w *variance) measure(t varbench.Trial) (float64, error) {
	streams := xrand.NewStreams(0)
	for _, v := range xrand.AllVars() {
		streams.Reseed(v, t.SourceSeed(varbench.Source(v)))
	}
	return pipeline.RunWithParams(w.task, w.params, streams)
}

func (w *variance) study(p *phase, op *varianceOp, par int, st store.Backend) varbench.VarianceStudy {
	s := varbench.VarianceStudy{
		Name:         w.task.Name(),
		Pipeline:     p.tr.traceTrial(w.measure),
		Sources:      op.sources,
		K:            varianceK,
		Realizations: varianceRealizations,
		Seed:         op.seed,
		Parallelism:  par,
	}
	if st != nil {
		s.Store = st
		s.PipelineID = fmt.Sprintf("varbench-variance/task=%s/structseed=%d", w.task.Name(), experiments.StructSeed)
	}
	return s
}

func (w *variance) prepare(p *phase, d int) error {
	w.deck = w.deck[:0]
	for _, v := range w.task.Sources() {
		if v != xrand.VarNumericalNoise {
			w.deck = append(w.deck, varianceOp{seed: w.rng.Uint64(), sources: []varbench.Source{varbench.Source(v)}})
		}
	}
	if len(w.deck) != w.deckLen() {
		return fmt.Errorf("variance: %d sources, want %d", len(w.deck), w.deckLen())
	}
	w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
	return nil
}

func (w *variance) run(p *phase, i int) (int, error) {
	op := &w.deck[i%len(w.deck)]
	s := w.study(p, op, p.par, w.st)
	sp := p.tr.enter("collect.Run", 0)
	rep, err := s.Run(context.Background())
	p.tr.exit(sp)
	if err != nil {
		return 0, err
	}
	op.rep = rep
	sp = p.tr.enter("render", 0)
	err = rep.Render(io.Discard, varbench.VarianceTextRenderer{})
	p.tr.exit(sp)
	return (len(op.sources) + 1) * varianceK * varianceRealizations, err
}

// check: one row per probed source plus the joint row, no quarantined
// measure, and finite, non-negative spreads.
func (w *variance) check(p *phase, i int) error {
	op := &w.deck[i%len(w.deck)]
	rep := op.rep
	if len(rep.Sources) != len(op.sources) || len(rep.Failures) != 0 || rep.K != varianceK || rep.Realizations != varianceRealizations {
		return fmt.Errorf("variance: %d rows for %d sources, %d failures, K=%d, realizations=%d", len(rep.Sources), len(op.sources), len(rep.Failures), rep.K, rep.Realizations)
	}
	for _, row := range rep.Rows() {
		if math.IsNaN(row.Std) || math.IsInf(row.Std, 0) || row.Std < 0 {
			return fmt.Errorf("variance: row %q has std %v", row.Source, row.Std)
		}
	}
	if w.first == nil {
		zeroed := *rep
		zeroed.Elapsed = 0
		b, err := json.Marshal(zeroed)
		if err != nil {
			return err
		}
		keep := *op
		w.first, w.json = &keep, b
	}
	return nil
}

// finish re-runs the phase's first study at Parallelism 1 without a store:
// the report must be byte-identical (Elapsed zeroed).
func (w *variance) finish(p *phase) error {
	if w.first == nil {
		return fmt.Errorf("variance: no study succeeded")
	}
	rep, err := w.study(&phase{}, w.first, 1, nil).Run(context.Background())
	if err != nil {
		return err
	}
	rep.Elapsed = 0
	b, err := json.Marshal(*rep)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, w.json) {
		return fmt.Errorf("variance: study at Parallelism 1 differs from the one at %d", p.par)
	}
	return nil
}

func (w *variance) close(p *phase) error { return p.dropStore(w.st, "store") }
