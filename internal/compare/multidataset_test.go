package compare

import (
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

// datasetsWithEffect draws nDatasets independent paired samples in which A
// beats B by diff under shared per-pair noise.
func datasetsWithEffect(r *xrand.Source, nDatasets, nPairs int, diff float64) [][]stats.Pair {
	out := make([][]stats.Pair, nDatasets)
	for d := range out {
		pairs := make([]stats.Pair, nPairs)
		for i := range pairs {
			base := r.NormFloat64()
			pairs[i] = stats.Pair{A: base + diff, B: base + 0.3*r.NormFloat64()}
		}
		out[d] = pairs
	}
	return out
}

// acrossDatasets evaluates every dataset with the recommended test at the
// Bonferroni-adjusted γ for m = len(datasets) comparisons — the per-dataset
// building block of the multi-dataset protocol — and reports whether every
// dataset is significant and meaningful (the Dror-style acceptance rule).
func acrossDatasets(t *testing.T, datasets [][]stats.Pair, gamma float64, r *xrand.Source) ([]Result, bool) {
	t.Helper()
	c := PAB{Gamma: stats.GammaBonferroni(gamma, 0.05, len(datasets))}
	res := make([]Result, len(datasets))
	all := true
	for d, pairs := range datasets {
		var err error
		if res[d], err = c.Evaluate(pairs, r.Uint64(), 2); err != nil {
			t.Fatal(err)
		}
		all = all && res[d].Decision == SignificantAndMeaningful
	}
	return res, all
}

func TestAcrossDatasetsAcceptsUniformWinner(t *testing.T) {
	r := xrand.New(1)
	res, all := acrossDatasets(t, datasetsWithEffect(r, 4, 40, 2.0), 0.75, r)
	if !all {
		t.Errorf("uniform dominance should be accepted: %+v", res)
	}
	// Adjusted γ must be stricter than the nominal one.
	if res[0].Gamma <= 0.75 {
		t.Errorf("adjusted γ = %v, want > 0.75", res[0].Gamma)
	}
}

func TestAcrossDatasetsNullControlled(t *testing.T) {
	r := xrand.New(3)
	if _, all := acrossDatasets(t, datasetsWithEffect(r, 4, 30, 0), 0.75, r); all {
		t.Error("null effect accepted across datasets")
	}
}
