// Package store provides durable, content-addressed trial stores that make
// varbench collection resumable and let overlapping studies share
// identical (seed, trial) cells instead of recomputing them. Every engine
// implements the Backend interface (see backend.go); three ship: the
// append-only JSONL log below (the default), an in-memory store (Mem) and
// a segmented binary log with group-commit coalescing (SegLog). OpenDSN
// selects one by DSN ("jsonl:DIR", "mem:", "seglog:DIR"; a bare path means
// jsonl). The rest of this comment documents the JSONL engine; the
// cross-backend semantics — cell identity, last-record-wins, bit-exact
// floats, the Flush durability barrier — live on Backend.
//
// Every record is addressed by a (key, fingerprint) pair. The key names one
// deterministic trial identity — varbench builds it from the experiment or
// study seed, the dataset (or (source, realization) cell, whose seed root
// derives from the study seed and realization index), the trial index and
// the pipeline side (A/B). The fingerprint hashes the parts of the spec
// that change what the trial measures — the varied-source set and the
// caller's pipeline ID — so a stale cache is rejected (the cell is simply
// recomputed and appended under the new fingerprint), never silently
// reused. Because trial seeds in varbench depend only on (seed, dataset,
// index), a record is valid for any MaxRuns/K, any Parallelism and any
// early-stop outcome: raising a study's budget or re-running after an
// interrupt reuses every completed trial bit-for-bit.
//
// Durability model: one JSON line is appended per completed trial, flushed
// to the OS before Put returns. A process killed mid-write leaves at most
// one torn final line, which Open skips; everything before it is intact, so
// an interrupted run resumes exactly where it stopped. The log is
// append-only — rewrites never happen, and duplicate (key, fingerprint)
// appends (e.g. two concurrent studies sharing one Store racing on a
// shared cell) are harmless because both sides computed the same
// deterministic score; the last record wins the in-memory index. One
// PROCESS owns a store at a time: Open takes an exclusive advisory lock
// (auto-released by the kernel when the process exits, however it dies)
// and fails fast when another live process holds the store, which is what
// makes the tail repair safe.
//
// The store does not hash pipeline code. Runs sharing a directory must
// execute the same pipeline per (PipelineID, side); use one directory per
// pipeline, or distinct pipeline IDs, when in doubt.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"varbench/internal/jsonx"
)

// LogName is the trial log's file name inside the store directory.
const LogName = "trials.jsonl"

// record is one JSONL line. Score is a strconv-formatted float ('g', -1),
// which round-trips every finite float64 exactly and — unlike a JSON number
// — also represents NaN and ±Inf, so a pipeline returning a non-finite
// score resumes to the identical value.
type record struct {
	Key         string          `json:"key"`
	Fingerprint string          `json:"fp"`
	Score       string          `json:"score,omitempty"`
	Value       json.RawMessage `json:"value,omitempty"`
}

type entry struct {
	score    float64
	hasScore bool
	value    json.RawMessage
}

// Store is a durable trial cache backed by an append-only JSONL log. All
// methods are safe for concurrent use; collection worker pools call Get and
// Put from many goroutines at once.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	idx  map[string]entry // key + "\x00" + fingerprint
	path string

	hits   atomic.Int64
	misses atomic.Int64
}

// Open creates dir if needed and loads the trial log inside it. A torn
// final line — the signature of a process killed mid-append — is skipped;
// a malformed line anywhere else reports corruption.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	// One process at a time: the exclusive flock (held until Close, auto-
	// released by the kernel even on SIGKILL) keeps a second process from
	// misreading a live writer's in-flight append as a torn tail and
	// truncating a completed record away. Concurrent use within one
	// process — many goroutines, many studies sharing one *Store — is
	// fully supported.
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{f: f, idx: make(map[string]entry), path: path}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load replays the log into the index and repairs the tail. Later records
// win, so a cell re-recorded under a new fingerprint coexists with the old
// one and a duplicate append is a no-op. A final line without a newline is
// the signature of a process killed mid-append: if it parses, the record is
// kept and the missing newline written; if not, the torn bytes are
// truncated away. Either way the next append starts on a clean line.
func (s *Store) load() error {
	r := bufio.NewReaderSize(s.f, 64*1024)
	var offset int64 // end of the last intact, newline-terminated prefix
	lineno := 0
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			lineno++
			terminated := len(line) > 0 && line[len(line)-1] == '\n'
			parseErr := s.indexLine(bytes.TrimRight(line, "\n"), lineno)
			switch {
			case parseErr == nil && terminated:
				offset += int64(len(line))
			case parseErr == nil: // intact record, torn newline
				if _, werr := s.f.Write([]byte("\n")); werr != nil {
					return fmt.Errorf("store: %s: repairing tail: %w", s.path, werr)
				}
				offset += int64(len(line)) + 1
			case terminated || err == nil:
				// Garbage in the middle of the log is real corruption, not
				// an interrupted append; refuse to guess.
				return parseErr
			default: // torn tail: drop it
				if terr := s.f.Truncate(offset); terr != nil {
					return fmt.Errorf("store: %s: truncating torn tail: %w", s.path, terr)
				}
			}
		}
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("store: %s: %w", s.path, err)
		}
	}
}

// indexLine parses one record line into the index. Empty lines are ignored.
func (s *Store) indexLine(line []byte, lineno int) error {
	if len(line) == 0 {
		return nil
	}
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil {
		return fmt.Errorf("store: %s:%d: corrupt record: %w", s.path, lineno, err)
	}
	e := entry{value: rec.Value}
	if rec.Score != "" {
		v, err := strconv.ParseFloat(rec.Score, 64)
		if err != nil {
			return fmt.Errorf("store: %s:%d: bad score %q: %w", s.path, lineno, rec.Score, err)
		}
		e.score, e.hasScore = v, true
	}
	s.idx[rec.Key+"\x00"+rec.Fingerprint] = e
	return nil
}

// Path returns the location of the trial log.
func (s *Store) Path() string { return s.path }

// Len returns the number of distinct (key, fingerprint) cells in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.idx)
}

// CountPrefix returns the number of distinct (key, fingerprint) cells whose
// key starts with prefix — e.g. "trial/" for trial scores or "analysis/"
// for persisted Stream snapshots.
func (s *Store) CountPrefix(prefix string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for k := range s.idx {
		if strings.HasPrefix(k, prefix) {
			n++
		}
	}
	return n
}

// Stats returns how many Get/GetJSON lookups hit and missed since Open.
func (s *Store) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}

// Get returns the score recorded for (key, fingerprint), if any. A record
// with a different fingerprint under the same key — a stale cache from an
// older spec — is never returned. Get keeps answering from the in-memory
// index after Close.
func (s *Store) Get(key, fingerprint string) (float64, bool) {
	s.mu.Lock()
	e, ok := s.idx[key+"\x00"+fingerprint]
	s.mu.Unlock()
	if !ok || !e.hasScore {
		s.misses.Add(1)
		return 0, false
	}
	s.hits.Add(1)
	return e.score, true
}

// Put appends one trial score and indexes it. The record is written in a
// single write call, flushed to the OS before Put returns.
func (s *Store) Put(key, fingerprint string, score float64) error {
	return s.append(record{
		Key:         key,
		Fingerprint: fingerprint,
		Score:       strconv.FormatFloat(score, 'g', -1, 64),
	}, entry{score: score, hasScore: true})
}

// GetJSON decodes the JSON payload recorded for (key, fingerprint) into v.
// It reports whether a payload was found; a found-but-undecodable payload
// returns an error. Like Get, it keeps answering from the in-memory index
// after Close.
func (s *Store) GetJSON(key, fingerprint string, v any) (bool, error) {
	s.mu.Lock()
	e, ok := s.idx[key+"\x00"+fingerprint]
	s.mu.Unlock()
	if !ok || e.value == nil {
		s.misses.Add(1)
		return false, nil
	}
	if err := json.Unmarshal(e.value, v); err != nil {
		s.misses.Add(1)
		return false, fmt.Errorf("store: %s: payload for %q: %w", s.path, key, err)
	}
	s.hits.Add(1)
	return true, nil
}

// PutJSON appends one JSON payload record — e.g. a cached analysis result —
// and indexes it. Non-finite floats in v are encoded as null.
func (s *Store) PutJSON(key, fingerprint string, v any) error {
	raw, err := jsonx.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.append(record{Key: key, Fingerprint: fingerprint, Value: raw},
		entry{value: raw})
}

func (s *Store) append(rec record, e entry) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s: %w", s.path, ErrClosed)
	}
	if _, err := s.f.Write(line); err != nil {
		return fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.idx[rec.Key+"\x00"+rec.Fingerprint] = e
	return nil
}

// Flush is the durability barrier: every Put/PutJSON accepted before the
// call had already reached the OS (each append is one write syscall), and
// Flush additionally fsyncs the log so the records survive power loss. On
// a closed store it fails with ErrClosed.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("store: %s: %w", s.path, ErrClosed)
	}
	if err := s.f.Sync(); err != nil { //lint:allow lockorder(single-file backend: the fsync IS the serialized commit; seglog is the backend that moves it off the lock)
		return fmt.Errorf("store: %s: %w", s.path, err)
	}
	return nil
}

// Close releases the log file and the process lock. Idempotent. After
// Close, Put/PutJSON/Flush fail with ErrClosed while Get/GetJSON keep
// serving the in-memory index — the log is only consulted at Open, so
// readers draining a pipeline never race a shutdown path's Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}

// Fingerprint hashes canonical spec parts into a short hex digest. Parts
// are length-delimited, so ("ab", "c") and ("a", "bc") differ.
func Fingerprint(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TrialKey names one deterministic trial identity: the collection seed (an
// experiment's root seed, or a variance cell's realization root), the
// dataset label, the trial index and the pipeline side ("A"/"B"). varbench
// builds every store key through this one function, so external tools can
// address the same cells.
func TrialKey(seed uint64, dataset string, index int, side string) string {
	return fmt.Sprintf("trial/seed=%d/dataset=%s/run=%d/%s", seed, dataset, index, side)
}

// FailureKey names one quarantined trial cell, addressing the same
// (seed, dataset, index, side) coordinates as TrialKey under the failure/
// prefix. The payload is the trial's attempt history (varbench's
// failureRecord JSON); it is written for audit when a non-FailFast run
// exhausts the cell's retry budget and never read back as a result — a
// later successful resume writes the trial/ key and the failure record
// simply stays behind as history.
func FailureKey(seed uint64, dataset string, index int, side string) string {
	return fmt.Sprintf("failure/seed=%d/dataset=%s/run=%d/%s", seed, dataset, index, side)
}

// AnalysisKey names one resumable Stream analysis: the root seed of the
// bootstrap randomness plus a scope label ("stream/" and the caller-chosen
// pipeline ID). Experiment runs persist trials only and write no analysis
// records; "analysis/…/scope=dataset/…" records that older releases wrote
// for them are never read. Stream snapshots ride the same append-only log
// as trials, as JSON payload records (PutJSON) of the form
//
//	{"n": <pairs consumed>, "hash": "<prefix hash, hex>", "state": "<base64>"}
//
// where state is the binary snapshot of the stream's one accumulator,
// stats.Accum, whose layout is documented in internal/stats/incremental.go
// (exact running sums and per-resample sums; float bit patterns preserved
// exactly). The fingerprint covers the kernel ID/version, the
// resample count K, the analysis seed and the stream's pipeline ID, so a
// snapshot is invalidated — recomputed, never silently reused — whenever
// K, the kernel, the seed derivation or the stream identity changes. Later
// snapshots for the same key supersede earlier ones via the
// last-record-wins index, and a torn final snapshot line is repaired by
// the same Open machinery that repairs torn trials.
func AnalysisKey(seed uint64, scope string) string {
	return fmt.Sprintf("analysis/seed=%d/scope=%s", seed, scope)
}
