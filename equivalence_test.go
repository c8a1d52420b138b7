package varbench

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// TestRunMatchesAnalyze: Experiment.Run judges its collected scores with
// the one-shot bootstrap of the score-level entry points, seeded the same
// way, so its comparisons equal Analyze's (unnamed dataset) and
// AnalyzeDatasets' (named datasets) on the scores it reports, bit for bit —
// including after an early stop and with a quarantined trial.
func TestRunMatchesAnalyze(t *testing.T) {
	failAt := func(tf TrialFunc, index int) TrialFunc {
		return func(tr Trial) (float64, error) {
			if tr.Index == index {
				return 0, errors.New("injected failure")
			}
			return tf(tr)
		}
	}
	cases := []struct {
		name string
		e    Experiment
	}{
		{"unnamed", Experiment{ATrial: goldenTrial(0.82), BTrial: goldenTrial(0.80)}},
		{"named", Experiment{Datasets: []Dataset{
			{Name: "cifar", ATrial: goldenTrial(0.82), BTrial: goldenTrial(0.80)},
		}}},
		{"three-datasets", Experiment{Datasets: []Dataset{
			{Name: "easy", ATrial: goldenTrial(0.95), BTrial: goldenTrial(0.80)},
			{Name: "close", ATrial: goldenTrial(0.81), BTrial: goldenTrial(0.80)},
			{Name: "tied", ATrial: goldenTrial(0.801), BTrial: goldenTrial(0.80)},
		}}},
		{"quarantined", Experiment{
			ATrial: failAt(goldenTrial(0.82), 3),
			BTrial: goldenTrial(0.80),
			Retry:  RetryPolicy{MaxAttempts: 1},
		}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/analysis-%d", tc.name, workers), func(t *testing.T) {
				e := tc.e
				e.Seed, e.Gamma, e.Confidence, e.Bootstrap = 21, 0.7, 0.9, 400
				e.MaxRuns, e.Parallelism, e.AnalysisParallelism = 32, 2, workers
				res, err := e.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				opts := []Option{WithSeed(21), WithGamma(0.7), WithConfidence(0.9),
					WithBootstrap(400), WithAnalysisParallelism(workers)}

				var want *Result
				if len(e.Datasets) == 0 {
					d := res.Datasets[0]
					want, err = Analyze(d.ScoresA, d.ScoresB, opts...)
				} else {
					var ds []DatasetScores
					for _, d := range res.Datasets {
						ds = append(ds, DatasetScores{Name: d.Name, ScoresA: d.ScoresA, ScoresB: d.ScoresB})
					}
					want, err = AnalyzeDatasets(ds, opts...)
				}
				if err != nil {
					t.Fatal(err)
				}
				if res.Comparison != want.Comparison {
					t.Errorf("Comparison:\n run     %+v\n analyze %+v", res.Comparison, want.Comparison)
				}
				if len(res.Datasets) != len(want.Datasets) {
					t.Fatalf("%d datasets, analysis has %d", len(res.Datasets), len(want.Datasets))
				}
				for i, d := range res.Datasets {
					if d.Comparison != want.Datasets[i].Comparison {
						t.Errorf("dataset %q:\n run     %+v\n analyze %+v", d.Name, d.Comparison, want.Datasets[i].Comparison)
					}
				}
				if res.AllMeaningful != want.AllMeaningful || res.WilcoxonP != want.WilcoxonP {
					t.Errorf("combined evidence: run (%v, %v), analyze (%v, %v)",
						res.AllMeaningful, res.WilcoxonP, want.AllMeaningful, want.WilcoxonP)
				}

				// The cases must exercise what they are named for.
				switch tc.name {
				case "three-datasets":
					if !res.Datasets[0].EarlyStopped || res.EarlyStopped {
						t.Errorf("want only the easy dataset to stop early, got stopped=%v per-dataset %v/%v/%v",
							res.EarlyStopped, res.Datasets[0].StopReason, res.Datasets[1].StopReason, res.Datasets[2].StopReason)
					}
				case "quarantined":
					if res.Quarantined != 1 || res.Pairs == 0 {
						t.Errorf("quarantined %d of %d pairs, want exactly 1", res.Quarantined, res.Pairs)
					}
				}
			})
		}
	}
}
