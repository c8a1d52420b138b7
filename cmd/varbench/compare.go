package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"varbench"
	"varbench/store"
)

// runCompare implements the `varbench compare` subcommand: the recommended
// statistical protocol on pre-collected score files, concluding with the
// three-zone decision. Score files are CSV with either one score per line
// (single benchmark) or dataset,score pairs (multi-dataset comparison with
// a Bonferroni-adjusted threshold); a non-numeric first line is treated as
// a header and skipped.
func runCompare(ctx context.Context, args []string, w io.Writer) error {
	_ = ctx // reserved: the analysis is CPU-bound and completes in one shot
	fs := flag.NewFlagSet("varbench compare", flag.ContinueOnError)
	fileA := fs.String("a", "", "CSV scores of algorithm A (required)")
	fileB := fs.String("b", "", "CSV scores of algorithm B (required)")
	gamma := fs.Float64("gamma", varbench.DefaultGamma, "meaningfulness threshold for P(A>B)")
	confidence := fs.Float64("confidence", varbench.DefaultConfidence, "bootstrap CI confidence level")
	bootstrap := fs.Int("bootstrap", varbench.DefaultBootstrap, "bootstrap resamples")
	seed := fs.Uint64("seed", 1, "bootstrap seed")
	unpaired := fs.Bool("unpaired", false, "scores were not collected under shared seeds (single dataset only)")
	format := fs.String("format", "text", "output format: text, json or csv")
	storeDir := fs.String("store", "", "result-store DSN (jsonl:DIR, mem:, seglog:DIR; a bare directory means jsonl): the analysis is cached by a fingerprint of the score files and protocol flags, and reused verbatim when nothing changed")
	waitLock := fs.Duration("wait-lock", 0, "wait up to this long for another process to release the store lock instead of failing immediately (0: fail immediately)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: varbench compare -a scoresA.csv -b scoresB.csv [flags]")
		fmt.Fprintln(fs.Output(), "score files: one score per line, or dataset,score rows for multi-dataset runs")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fileA == "" || *fileB == "" {
		fs.Usage()
		return fmt.Errorf("compare needs both -a and -b score files")
	}
	var ren varbench.Renderer
	switch *format {
	case "text":
		ren = varbench.TextRenderer{}
	case "json":
		ren = varbench.JSONRenderer{Indent: true}
	case "csv":
		ren = varbench.CSVRenderer{}
	default:
		return fmt.Errorf("unknown format %q (want text, json or csv)", *format)
	}

	scoresA, rawA, err := readScores(*fileA)
	if err != nil {
		return err
	}
	scoresB, rawB, err := readScores(*fileB)
	if err != nil {
		return err
	}
	opts := []varbench.Option{
		varbench.WithGamma(*gamma),
		varbench.WithConfidence(*confidence),
		varbench.WithBootstrap(*bootstrap),
		varbench.WithSeed(*seed),
	}

	// With -store, the complete Result is cached under a fingerprint of
	// every input that determines it — the raw score files and the protocol
	// flags (-format is deliberately excluded: one cached analysis renders
	// as text, JSON or CSV alike). An unchanged rerun decodes the cached
	// result instead of redoing the bootstrap; any input change misses the
	// fingerprint and recomputes. The version tag names the engine: v1
	// stores hold P(A>B) CIs from index resampling at every n, which the
	// class-count kernel no longer reproduces above its crossover, so they
	// miss and recompute.
	const compareKey = "varbench-compare/analysis"
	var st store.Backend
	var resultFP string
	if *storeDir != "" {
		if st, err = openStore(ctx, *storeDir, *waitLock); err != nil {
			return err
		}
		defer st.Close()
		resultFP = store.Fingerprint(
			"varbench-compare/v2",
			string(rawA), string(rawB),
			fmt.Sprintf("gamma=%v/confidence=%v/bootstrap=%d/seed=%d/unpaired=%t",
				*gamma, *confidence, *bootstrap, *seed, *unpaired),
		)
		var cached varbench.Result
		ok, err := st.GetJSON(compareKey, resultFP, &cached)
		if err != nil {
			return err
		}
		if ok {
			fmt.Fprintf(os.Stderr, "varbench: store %s: analysis reused\n", *storeDir)
			return cached.Render(w, ren)
		}
	}

	var res *varbench.Result
	if scoresA.named() || scoresB.named() {
		// Any named dataset goes through the dataset-aware path, so names
		// are cross-checked between the files and kept in the report. A
		// single named dataset gets no γ adjustment.
		if *unpaired {
			return fmt.Errorf("-unpaired is only supported for unnamed single-dataset score files")
		}
		var multi []varbench.DatasetScores
		for _, name := range scoresA.datasets {
			b, ok := scoresB.byDataset[name]
			if !ok {
				if name == "" {
					return fmt.Errorf("%s has unnamed scores but %s uses dataset labels", *fileA, *fileB)
				}
				return fmt.Errorf("dataset %q present in %s but missing from %s", name, *fileA, *fileB)
			}
			multi = append(multi, varbench.DatasetScores{
				Name:    name,
				ScoresA: scoresA.byDataset[name],
				ScoresB: b,
			})
		}
		if len(scoresB.datasets) != len(scoresA.datasets) {
			return fmt.Errorf("%s and %s disagree on the dataset list", *fileA, *fileB)
		}
		res, err = varbench.AnalyzeDatasets(multi, opts...)
	} else {
		if *unpaired {
			opts = append(opts, varbench.WithUnpaired())
		}
		res, err = varbench.Analyze(scoresA.all(), scoresB.all(), opts...)
	}
	if err != nil {
		return err
	}
	if st != nil {
		if err := st.PutJSON(compareKey, resultFP, res); err != nil {
			return err
		}
		if err := st.Flush(); err != nil {
			return err
		}
	}
	return res.Render(w, ren)
}

// scoreFile holds the parsed contents of one score CSV, preserving dataset
// order of first appearance.
type scoreFile struct {
	datasets  []string
	byDataset map[string][]float64
}

// named reports whether the file carries dataset labels.
func (s *scoreFile) named() bool {
	return len(s.datasets) > 1 || s.datasets[0] != ""
}

func (s *scoreFile) all() []float64 {
	var out []float64
	for _, name := range s.datasets {
		out = append(out, s.byDataset[name]...)
	}
	return out
}

func (s *scoreFile) add(dataset string, v float64) {
	if s.byDataset == nil {
		s.byDataset = make(map[string][]float64)
	}
	if _, ok := s.byDataset[dataset]; !ok {
		s.datasets = append(s.datasets, dataset)
	}
	s.byDataset[dataset] = append(s.byDataset[dataset], v)
}

// readScores reads and parses one score CSV. The raw bytes are returned
// alongside the parsed scores so the -store fingerprint can hash exactly
// what was analyzed: re-reading the file for hashing would open a window
// in which a concurrently rewritten file poisons the cache (analysis of
// the old bytes stored under the new bytes' fingerprint).
func readScores(path string) (*scoreFile, []byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	out := &scoreFile{}
	for i, rec := range records {
		var dataset, field string
		switch len(rec) {
		case 1:
			field = rec[0]
		case 2:
			dataset, field = rec[0], rec[1]
		default:
			return nil, nil, fmt.Errorf("%s:%d: want `score` or `dataset,score`, got %d fields", path, i+1, len(rec))
		}
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			// Only a digit-free first line reads as a header; a malformed
			// first score (e.g. `O.85`) must error, not be skipped.
			if i == 0 && !strings.ContainsAny(field, "0123456789") {
				continue
			}
			return nil, nil, fmt.Errorf("%s:%d: bad score %q", path, i+1, field)
		}
		// NaN/Inf (failed runs in exported logs) would silently bias
		// P(A>B) and break JSON output; reject them up front.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, nil, fmt.Errorf("%s:%d: non-finite score %q", path, i+1, field)
		}
		out.add(dataset, v)
	}
	if len(out.datasets) == 0 {
		return nil, nil, fmt.Errorf("%s: no scores found", path)
	}
	return out, data, nil
}
