package varbench

import (
	"fmt"
	"math"
	"strconv"

	"varbench/internal/compare"
	"varbench/internal/stats"
	"varbench/store"
)

// This file is the root-package face of the incremental bootstrap engine
// (stats.Accum, internal/stats/incremental.go), which only Stream uses: a
// stream threads ONE resumable accumulator through every Extend via the
// incAnalysis helper below, so each update costs O(K × n_new) instead of a
// full K-resample bootstrap over all n pairs. The accumulator owns the
// numeric state and its snapshot bytes; incAnalysis adds prefix-hash
// verification, the store's JSON envelope and replay. With a store attached
// Flush snapshots the state, so a resumed stream also resumes its
// analysis. Experiment.Run does not come here: it re-runs Analyze's
// one-shot bootstrap at each early-stop boundary.

// analysisSnapshot is the JSON payload persisted per analysis state (see
// store.AnalysisKey for the key/fingerprint scheme). State is the
// stats.Accum snapshot (bit-exact float round-trip; marshals as base64), Hash
// the hex prefix hash of the N score pairs the state has consumed — no
// float-typed JSON fields, so NaN-safety is moot by construction.
type analysisSnapshot struct {
	N     int    `json:"n"`
	Hash  string `json:"hash"`
	State []byte `json:"state"`
}

// pairHasher folds score pairs into an FNV-1a running hash, in arrival
// order over the little-endian float bit patterns. Restored snapshots are
// verified against the hash of the replayed prefix: a mismatch means the
// persisted state was built from different scores (a poisoned or foreign
// store), and the state is discarded and recomputed — never silently
// served — matching the store's fingerprint philosophy.
type pairHasher struct {
	h uint64
	n int
}

func newPairHasher() pairHasher { return pairHasher{h: 14695981039346656037} }

func (p *pairHasher) add(a, b float64) {
	const prime = 1099511628211
	for _, bits := range [2]uint64{math.Float64bits(a), math.Float64bits(b)} {
		for s := 0; s < 64; s += 8 {
			p.h ^= bits >> s & 0xff
			p.h *= prime
		}
	}
	p.n++
}

// incAnalysis wraps a stats.Accum with prefix verification and store
// persistence. Feeding is idempotent over a restored prefix: pairs the
// restored accumulator already consumed are hash-verified and skipped,
// pairs beyond it extend the accumulator. All methods must be called from
// one goroutine (extensions parallelize internally).
type incAnalysis struct {
	crit    compare.PAB
	workers int
	acc     *stats.Accum

	hasher       pairHasher
	restoredN    int // pairs covered by the restored snapshot (0 = fresh)
	restoredHash uint64

	st      store.Backend // nil: no persistence
	key, fp string
}

// newIncAnalysis analyzes with acc, a fresh accumulator, resuming from a
// persisted snapshot when st holds a valid one under (key, fp). Restore
// failures of any kind fall back to the fresh state — recomputing is
// always correct.
func newIncAnalysis(crit compare.PAB, acc *stats.Accum, workers int, st store.Backend, key, fp string) *incAnalysis {
	ia := &incAnalysis{
		crit: crit, workers: workers, acc: acc,
		hasher: newPairHasher(),
		st:     st, key: key, fp: fp,
	}
	if st == nil {
		return ia
	}
	var snap analysisSnapshot
	ok, err := st.GetJSON(key, fp, &snap)
	if err != nil || !ok || snap.N <= 0 {
		return ia
	}
	h, err := strconv.ParseUint(snap.Hash, 16, 64)
	if err != nil {
		return ia
	}
	restored, err := stats.NewAccum(acc.K(), acc.Seed())
	if err != nil || restored.UnmarshalBinary(snap.State) != nil || restored.N() != snap.N {
		return ia
	}
	ia.acc = restored
	ia.restoredN = snap.N
	ia.restoredHash = h
	return ia
}

// n returns how many pairs the accumulator currently covers — ahead of the
// pairs fed so far while a restored snapshot is being replayed.
func (ia *incAnalysis) n() int { return ia.acc.N() }

// fed returns how many pairs have been fed (replayed or extended).
func (ia *incAnalysis) fed() int { return ia.hasher.n }

// feed consumes the newly collected pairs scoresA[lo:hi]/scoresB[lo:hi].
// Calls must be contiguous (each lo equals the previous hi). Pairs the
// restored accumulator already covers are verified against the snapshot's
// prefix hash and skipped; on hash mismatch the restored state is discarded
// and rebuilt from the scores collected so far. Pairs beyond the restored
// prefix extend the accumulator — bit-identically to a from-scratch
// analysis.
func (ia *incAnalysis) feed(scoresA, scoresB []float64, lo, hi int) error {
	if ia.hasher.n != lo {
		return fmt.Errorf("varbench: analysis fed pairs [%d:%d), want contiguous from %d", lo, hi, ia.hasher.n)
	}
	for i := lo; i < hi; i++ {
		ia.hasher.add(scoresA[i], scoresB[i])
		if ia.restoredN > 0 && ia.hasher.n == ia.restoredN && ia.hasher.h != ia.restoredHash {
			// The replayed scores disagree with what the snapshot consumed:
			// rebuild from scratch over everything observed so far.
			if err := ia.rebuild(scoresA[:i+1], scoresB[:i+1]); err != nil {
				return err
			}
		}
	}
	if start := ia.acc.N(); start < hi {
		if start < lo {
			return fmt.Errorf("varbench: analysis state at %d pairs behind batch start %d", start, lo)
		}
		ia.acc.Extend(scoresA[start:hi], scoresB[start:hi], ia.workers)
	}
	return nil
}

// rebuild discards the current (restored) state and recomputes a fresh one
// from the given score history — correct by construction, and
// bit-identical to having extended a fresh accumulator all along.
func (ia *incAnalysis) rebuild(scoresA, scoresB []float64) error {
	fresh, err := stats.NewAccum(ia.acc.K(), ia.acc.Seed())
	if err != nil {
		return err
	}
	fresh.Extend(scoresA, scoresB, ia.workers)
	ia.acc = fresh
	ia.restoredN = 0
	return nil
}

// save persists the current state snapshot (no-op without a store). Safe to
// call at any batch boundary; the last write wins on restore.
func (ia *incAnalysis) save() error {
	if ia.st == nil {
		return nil
	}
	if ia.acc.N() > ia.hasher.n {
		// Mid-replay of a restored snapshot: the state covers pairs whose
		// hash we cannot attest yet, and the store already holds this very
		// snapshot — rewriting it adds nothing.
		return nil
	}
	blob, err := ia.acc.MarshalBinary()
	if err != nil {
		return err
	}
	return ia.st.PutJSON(ia.key, ia.fp, analysisSnapshot{
		N:     ia.acc.N(),
		Hash:  strconv.FormatUint(ia.hasher.h, 16),
		State: blob,
	})
}

// comparison evaluates the three-zone decision on the accumulator and
// shapes it as the public Comparison. Like the one-shot path it needs at
// least two pairs. Callers must only evaluate when the accumulator covers
// exactly the pairs they mean to report on (n() == fed()).
func (ia *incAnalysis) comparison() (Comparison, error) {
	n := ia.acc.N()
	if n < 2 {
		return Comparison{}, fmt.Errorf("compare: need ≥ 2 pairs, got %d", n)
	}
	res := ia.crit.Decide(ia.acc.Point(), ia.acc.CI(ia.crit.Level))
	meanA, meanB := ia.acc.Means()
	return newComparison(res, meanA, meanB, n), nil
}
