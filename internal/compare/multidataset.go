package compare

import (
	"fmt"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// Section 6 of the paper discusses accumulating evidence across multiple
// datasets. This file runs the per-dataset half: the recommended test on
// every dataset at a multiple-comparison-adjusted threshold. The root
// package combines the outcomes — Demšar's (2006) Wilcoxon signed-rank
// test over per-dataset mean performances (better with many datasets) and
// Dror et al.'s (2017) all-datasets replicability criterion (better with
// few datasets, which is the common case — papers typically use 3 to 5).

// DatasetOutcome is the per-dataset piece of a multi-dataset comparison.
type DatasetOutcome struct {
	Dataset       string
	Result        Result  // the recommended P(A>B) test on this dataset
	AdjustedGamma float64 // γ after the multiple-comparison adjustment
}

// DatasetPairs carries the paired measures of one dataset.
type DatasetPairs struct {
	Name  string
	Pairs []stats.Pair
}

// AcrossDatasets runs the recommended test on each dataset with a
// Bonferroni-adjusted meaningfulness threshold (Section 6's suggestion) and
// returns the outcomes in dataset order. crit carries the CI level, the
// bootstrap count and the unadjusted γ. The per-dataset bootstrap is
// sharded across `workers` goroutines, and each dataset's resampling stream
// is derived from (seed, dataset name) alone, so the outcome is independent
// of both the worker count and the dataset evaluation order.
func AcrossDatasets(datasets []DatasetPairs, crit PAB, alpha float64, seed uint64, workers int) ([]DatasetOutcome, error) {
	if len(datasets) == 0 {
		return nil, fmt.Errorf("compare: no datasets")
	}
	adjGamma := stats.GammaBonferroni(crit.gamma(), alpha, len(datasets))
	if err := validAdjustedGamma(adjGamma); err != nil {
		return nil, err
	}
	root := xrand.New(seed)
	res := make([]DatasetOutcome, 0, len(datasets))
	for _, ds := range datasets {
		crit := PAB{Gamma: adjGamma, Level: crit.Level, Bootstrap: crit.Bootstrap}
		dsSeed := root.Split("dataset/" + ds.Name).Uint64()
		out, err := crit.Evaluate(ds.Pairs, dsSeed, workers)
		if err != nil {
			return nil, fmt.Errorf("compare: dataset %s: %w", ds.Name, err)
		}
		res = append(res, DatasetOutcome{
			Dataset: ds.Name, Result: out, AdjustedGamma: adjGamma,
		})
	}
	return res, nil
}

// validAdjustedGamma guards the threshold the decision rule consumes: the
// Bonferroni adjustment saturates at stats.GammaMax < 1, and anything at or
// beyond 1 would make "significant and meaningful" unreachable.
func validAdjustedGamma(g float64) error {
	if g <= 0.5 || g >= 1 {
		return fmt.Errorf("compare: adjusted γ = %v out of (0.5, 1)", g)
	}
	return nil
}
