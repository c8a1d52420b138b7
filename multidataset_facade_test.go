package varbench

import (
	"testing"

	"varbench/internal/stats"
	"varbench/internal/xrand"
)

func syntheticDatasets(seed uint64, nDatasets, n int, diff float64) []DatasetScores {
	r := xrand.New(seed)
	out := make([]DatasetScores, nDatasets)
	for d := range out {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			base := r.NormFloat64()
			a[i] = base + diff
			b[i] = base + 0.3*r.NormFloat64()
		}
		out[d] = DatasetScores{Name: string(rune('A' + d)), ScoresA: a, ScoresB: b}
	}
	return out
}

func TestCompareAcrossDatasetsWinner(t *testing.T) {
	res, err := AnalyzeDatasets(syntheticDatasets(1, 4, 40, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllMeaningful {
		t.Errorf("uniform winner rejected: %+v", res.Datasets)
	}
	if res.WilcoxonP > 0.1 {
		t.Errorf("Wilcoxon p = %v", res.WilcoxonP)
	}
	if len(res.Datasets) != 4 || res.Datasets[3].Name != "D" {
		t.Error("per-dataset bookkeeping wrong")
	}
	// Adjusted γ stricter than default.
	if res.Datasets[0].Comparison.Gamma <= DefaultGamma {
		t.Errorf("adjusted γ = %v", res.Datasets[0].Comparison.Gamma)
	}
	// Two datasets: Wilcoxon is not applicable and reports p=1.
	two, err := AnalyzeDatasets(syntheticDatasets(1, 2, 20, 2.0))
	if err != nil {
		t.Fatal(err)
	}
	if two.WilcoxonP != 1 {
		t.Errorf("Wilcoxon with 2 datasets should be 1, got %v", two.WilcoxonP)
	}
}

func TestCompareAcrossDatasetsNull(t *testing.T) {
	res, err := AnalyzeDatasets(syntheticDatasets(2, 3, 30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMeaningful {
		t.Error("null accepted across datasets")
	}
}

func TestCompareAcrossDatasetsErrors(t *testing.T) {
	bad := []DatasetScores{{Name: "x", ScoresA: []float64{1}, ScoresB: []float64{1, 2}}}
	if _, err := AnalyzeDatasets(bad); err == nil {
		t.Error("unpaired dataset accepted")
	}
	if _, err := AnalyzeDatasets(nil); err == nil {
		t.Error("empty dataset list accepted")
	}
}

func TestAnalyzeDatasetsRejectsWhenOneDatasetFails(t *testing.T) {
	ds := syntheticDatasets(2, 3, 40, 2.0)
	// Break the third dataset: no effect at all.
	ds[2] = syntheticDatasets(3, 1, 40, 0)[0]
	ds[2].Name = "C"
	res, err := AnalyzeDatasets(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.AllMeaningful {
		t.Error("one null dataset must block all-datasets acceptance")
	}
	if d := res.Datasets[2]; d.Comparison.Conclusion == SignificantAndMeaningful {
		t.Errorf("null dataset judged meaningful: %+v", d.Comparison)
	}
	for _, d := range res.Datasets[:2] {
		if d.Comparison.Conclusion != SignificantAndMeaningful {
			t.Errorf("dataset %s with a clear effect judged %q", d.Name, d.Comparison.Conclusion)
		}
	}
}

func TestAnalyzeDatasetsSmallCounts(t *testing.T) {
	// Two datasets: one outcome each, in order, at the m=2 Bonferroni γ.
	res, err := AnalyzeDatasets(syntheticDatasets(4, 2, 20, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datasets) != 2 || res.Datasets[0].Name != "A" || res.Datasets[1].Name != "B" {
		t.Fatalf("outcomes %+v, want datasets A, B in order", res.Datasets)
	}
	want := stats.GammaBonferroni(DefaultGamma, 0.05, 2)
	for _, d := range res.Datasets {
		if d.Comparison.Gamma != want {
			t.Errorf("dataset %s: adjusted γ = %v, want %v", d.Name, d.Comparison.Gamma, want)
		}
	}
}

// TestAnalyzeDatasetsOrderInvariance: each dataset's bootstrap stream is
// keyed by (Seed, name), so shuffling the dataset list permutes the
// per-dataset outcomes without changing any of them.
func TestAnalyzeDatasetsOrderInvariance(t *testing.T) {
	ds := syntheticDatasets(6, 3, 30, 2.0)
	ref, err := AnalyzeDatasets(ds, WithSeed(7), WithAnalysisParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	perm, err := AnalyzeDatasets([]DatasetScores{ds[2], ds[0], ds[1]}, WithSeed(7), WithAnalysisParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Comparison{}
	for _, d := range perm.Datasets {
		byName[d.Name] = d.Comparison
	}
	for _, d := range ref.Datasets {
		if got := byName[d.Name]; got != d.Comparison {
			t.Errorf("dataset %s changed under reordering:\n %+v\n %+v", d.Name, got, d.Comparison)
		}
	}
	if !ref.AllMeaningful || perm.AllMeaningful != ref.AllMeaningful || perm.WilcoxonP != ref.WilcoxonP {
		t.Errorf("combined evidence: ref (%v, %v), shuffled (%v, %v)",
			ref.AllMeaningful, ref.WilcoxonP, perm.AllMeaningful, perm.WilcoxonP)
	}
}
