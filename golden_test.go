package varbench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"varbench/internal/xrand"
)

// The golden guard pins the JSON report bytes of every public analysis
// path — one-shot paired and unpaired Analyze, multi-dataset
// AnalyzeDatasets, the early-stopping Experiment.Run and a chunked Stream —
// against files under testdata/golden. Refactors of the bootstrap engine
// must leave every one of these bytes unchanged; a deliberate change to the
// numbers is a re-pin of these files, stated as such.

// goldenScores returns n paired scores with a shared per-trial component
// (so pairing matters) and A ahead of B by shift on average.
func goldenScores(seed uint64, n int, shift float64) (a, b []float64) {
	r := xrand.New(seed)
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		shared := 0.03 * r.NormFloat64()
		a[i] = 0.80 + shift + shared + 0.02*r.NormFloat64()
		b[i] = 0.80 + shared + 0.02*r.NormFloat64()
	}
	return a, b
}

// goldenTrial is a synthetic TrialFunc whose score derives from the
// trial's per-source seeds, with an init-seed component shared by A and B.
func goldenTrial(mean float64) TrialFunc {
	return func(t Trial) (float64, error) {
		shared := 0.03 * xrand.New(t.SourceSeed(VarInit)).NormFloat64()
		own := 0.02 * xrand.New(t.SourceSeed(VarOrder)^uint64(mean*1e6)).NormFloat64()
		return mean + shared + own, nil
	}
}

func renderGolden(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Render(&buf, JSONRenderer{Indent: true}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: report bytes differ from the pinned golden\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenReports(t *testing.T) {
	for _, n := range []int{29, 1000} {
		a, b := goldenScores(uint64(n), n, 0.01)
		name := "analyze-n" + strconv.Itoa(n)
		for _, workers := range []int{1, 4} {
			res, err := Analyze(a, b, WithSeed(11), WithAnalysisParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name, renderGolden(t, res))
		}
	}

	t.Run("unpaired", func(t *testing.T) {
		a, _ := goldenScores(3, 40, 0.02)
		_, b := goldenScores(4, 35, 0)
		res, err := Analyze(a, b, WithSeed(12), WithUnpaired())
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "analyze-unpaired", renderGolden(t, res))
	})

	t.Run("datasets", func(t *testing.T) {
		var ds []DatasetScores
		for i, name := range []string{"cifar", "glue", "mhc"} {
			a, b := goldenScores(uint64(20+i), 30+5*i, 0.005*float64(i+1))
			ds = append(ds, DatasetScores{Name: name, ScoresA: a, ScoresB: b})
		}
		res, err := AnalyzeDatasets(ds, WithSeed(13), WithAnalysisParallelism(2))
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "analyze-datasets", renderGolden(t, res))
	})

	t.Run("experiment", func(t *testing.T) {
		e := Experiment{
			ATrial:      goldenTrial(0.82),
			BTrial:      goldenTrial(0.80),
			Seed:        14,
			MaxRuns:     40,
			Parallelism: 2,
		}
		res, err := e.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		res.Elapsed = 0
		checkGolden(t, "experiment-run", renderGolden(t, res))
	})

	t.Run("stream", func(t *testing.T) {
		s, err := NewStream(WithSeed(15))
		if err != nil {
			t.Fatal(err)
		}
		a, b := goldenScores(15, 60, 0.01)
		for _, cut := range [][2]int{{0, 7}, {7, 31}, {31, 60}} {
			if _, err := s.Extend(a[cut[0]:cut[1]], b[cut[0]:cut[1]]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "stream-chunks", renderGolden(t, res))
	})
}
