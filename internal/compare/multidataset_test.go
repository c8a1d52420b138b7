package compare

import (
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func datasetsWithEffect(r *xrand.Source, nDatasets, nPairs int, diff float64) []DatasetPairs {
	out := make([]DatasetPairs, nDatasets)
	for d := range out {
		pairs := make([]stats.Pair, nPairs)
		for i := range pairs {
			base := r.NormFloat64()
			pairs[i] = stats.Pair{A: base + diff, B: base + 0.3*r.NormFloat64()}
		}
		out[d] = DatasetPairs{Name: string(rune('a' + d)), Pairs: pairs}
	}
	return out
}

// allMeaningful is the Dror-style all-datasets acceptance over outcomes.
func allMeaningful(outcomes []DatasetOutcome) bool {
	for _, d := range outcomes {
		if d.Result.Decision != SignificantAndMeaningful {
			return false
		}
	}
	return true
}

func TestAcrossDatasetsAcceptsUniformWinner(t *testing.T) {
	r := xrand.New(1)
	ds := datasetsWithEffect(r, 4, 40, 2.0)
	res, err := AcrossDatasets(ds, PAB{Gamma: 0.75}, 0.05, r.Uint64(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !allMeaningful(res) {
		t.Errorf("uniform dominance should be accepted: %+v", res)
	}
	// Adjusted γ must be stricter than the nominal one.
	if res[0].AdjustedGamma <= 0.75 {
		t.Errorf("adjusted γ = %v, want > 0.75", res[0].AdjustedGamma)
	}
}

func TestAcrossDatasetsRejectsWhenOneDatasetFails(t *testing.T) {
	r := xrand.New(2)
	ds := datasetsWithEffect(r, 3, 40, 2.0)
	// Break the third dataset: no effect at all.
	for i := range ds[2].Pairs {
		base := r.NormFloat64()
		ds[2].Pairs[i] = stats.Pair{A: base, B: base + 0.3*r.NormFloat64()}
	}
	res, err := AcrossDatasets(ds, PAB{Gamma: 0.75}, 0.05, r.Uint64(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if allMeaningful(res) {
		t.Error("one null dataset must block all-datasets acceptance")
	}
	if d := res[2]; d.Result.Decision == SignificantAndMeaningful {
		t.Errorf("null dataset judged meaningful: %+v", d)
	}
}

func TestAcrossDatasetsNullControlled(t *testing.T) {
	r := xrand.New(3)
	ds := datasetsWithEffect(r, 4, 30, 0)
	res, err := AcrossDatasets(ds, PAB{Gamma: 0.75}, 0.05, r.Uint64(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if allMeaningful(res) {
		t.Error("null effect accepted across datasets")
	}
}

func TestAcrossDatasetsSmallCounts(t *testing.T) {
	r := xrand.New(4)
	// Two datasets: one outcome each, in order, at the m=2 Bonferroni γ.
	ds := datasetsWithEffect(r, 2, 20, 1.5)
	res, err := AcrossDatasets(ds, PAB{Gamma: 0.75}, 0.05, r.Uint64(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Dataset != "a" || res[1].Dataset != "b" {
		t.Fatalf("outcomes %+v, want datasets a, b in order", res)
	}
	if want := stats.GammaBonferroni(0.75, 0.05, 2); res[0].AdjustedGamma != want || res[1].AdjustedGamma != want {
		t.Errorf("adjusted γ = %v, %v, want %v", res[0].AdjustedGamma, res[1].AdjustedGamma, want)
	}
	if _, err := AcrossDatasets(nil, PAB{}, 0.05, 1, 1); err == nil {
		t.Error("empty dataset list should error")
	}
}
