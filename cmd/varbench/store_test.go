package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"varbench"
	"varbench/store"
)

// TestVarianceCommandStoreResume: with -store, an interrupted `varbench
// variance` run leaves a trial log a rerun resumes from, and the resumed
// report is byte-identical to a storeless run.
func TestVarianceCommandStoreResume(t *testing.T) {
	dir := t.TempDir()

	var clean bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "2"), &clean); err != nil {
		t.Fatal(err)
	}

	// An already-canceled context models SIGINT landing before any trial:
	// the run must fail with the context error (main translates it into
	// the "interrupted" message and exit 130), not render a report.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var interrupted bytes.Buffer
	err := run(ctx, varianceArgs("-p", "2", "-store", dir), &interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: want context.Canceled, got %v", err)
	}
	if interrupted.Len() != 0 {
		t.Errorf("canceled run must not render a report, got:\n%s", interrupted.String())
	}

	// First real run populates the store; the rerun is served from it.
	// Both must match the storeless report byte for byte.
	var first, second bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "2", "-store", dir), &first); err != nil {
		t.Fatal(err)
	}
	if first.String() != clean.String() {
		t.Errorf("-store run differs from storeless run:\n%s\n---\n%s", first.String(), clean.String())
	}
	if err := run(context.Background(), varianceArgs("-p", "2", "-store", dir), &second); err != nil {
		t.Fatal(err)
	}
	if second.String() != clean.String() {
		t.Errorf("cached rerun differs from storeless run:\n%s\n---\n%s", second.String(), clean.String())
	}
	if _, err := os.Stat(filepath.Join(dir, store.LogName)); err != nil {
		t.Errorf("store log missing: %v", err)
	}
}

// TestVarianceCommandStoreIsolatesSpecs: changing the structural seed (a
// different synthetic task distribution, same task name) must miss the
// cache — the pipeline identity is part of the spec fingerprint.
func TestVarianceCommandStoreIsolatesSpecs(t *testing.T) {
	dir := t.TempDir()
	var a, b bytes.Buffer
	if err := run(context.Background(), varianceArgs("-p", "1", "-store", dir), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), varianceArgs("-p", "1", "-store", dir, "-structseed", "99"), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() == b.String() {
		t.Error("different structseed produced identical reports — stale cache served?")
	}
}

// TestCompareCommandStoreReuse: with -store, an unchanged `varbench
// compare` rerun serves the cached analysis with byte-identical output,
// and any input change recomputes.
func TestCompareCommandStoreReuse(t *testing.T) {
	dir := t.TempDir()
	tmp := t.TempDir()
	fa := filepath.Join(tmp, "a.csv")
	fb := filepath.Join(tmp, "b.csv")
	if err := os.WriteFile(fa, []byte("0.91\n0.93\n0.90\n0.92\n0.94\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, []byte("0.85\n0.86\n0.84\n0.83\n0.87\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"compare", "-a", fa, "-b", fb, "-store", dir, "-format", "json"}

	var fresh, cached bytes.Buffer
	if err := run(context.Background(), args, &fresh); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args, &cached); err != nil {
		t.Fatal(err)
	}
	if fresh.String() != cached.String() {
		t.Errorf("cached compare differs:\n%s\n---\n%s", fresh.String(), cached.String())
	}
	if !strings.Contains(fresh.String(), `"conclusion"`) {
		t.Errorf("missing conclusion in output:\n%s", fresh.String())
	}

	// One cached analysis renders in every format.
	var asText bytes.Buffer
	textArgs := []string{"compare", "-a", fa, "-b", fb, "-store", dir}
	if err := run(context.Background(), textArgs, &asText); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(asText.String(), "P(A>B)") {
		t.Errorf("text render of cached analysis:\n%s", asText.String())
	}

	// A different protocol flag misses the fingerprint and recomputes.
	var other bytes.Buffer
	if err := run(context.Background(), append(args, "-gamma", "0.6"), &other); err != nil {
		t.Fatal(err)
	}
	if other.String() == fresh.String() {
		t.Error("different -gamma served the old cached analysis")
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns
// what f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = saved }()
	f()
	out, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestCompareCommandStoreIgnoresV1: a store written before the class-count
// P(A>B) kernel holds its analysis under the v1 fingerprint tag. The same
// inputs must miss it, recompute, and render the bytes of a storeless run;
// the rerun then reuses the v2 entry.
func TestCompareCommandStoreIgnoresV1(t *testing.T) {
	tmp := t.TempDir()
	var rawA, rawB strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&rawA, "%.2f\n", 0.80+0.01*float64((i*7)%11))
		fmt.Fprintf(&rawB, "%.2f\n", 0.80+0.01*float64((i*5)%9))
	}
	fa, fb := filepath.Join(tmp, "a.csv"), filepath.Join(tmp, "b.csv")
	if err := os.WriteFile(fa, []byte(rawA.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(fb, []byte(rawB.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	args := []string{"compare", "-a", fa, "-b", fb, "-format", "json"}
	var clean bytes.Buffer
	if err := run(context.Background(), args, &clean); err != nil {
		t.Fatal(err)
	}

	// Seed the store with a stale analysis under the v1 fingerprint of
	// these exact inputs and default flags.
	var stale varbench.Result
	if err := json.Unmarshal(clean.Bytes(), &stale); err != nil {
		t.Fatal(err)
	}
	stale.Comparison.CILo, stale.Comparison.CIHi = 0.123, 0.456
	dir := filepath.Join(tmp, "store")
	st, err := store.OpenDSN(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1 := store.Fingerprint("varbench-compare/v1", rawA.String(), rawB.String(),
		fmt.Sprintf("gamma=%v/confidence=%v/bootstrap=%d/seed=%d/unpaired=%t",
			varbench.DefaultGamma, varbench.DefaultConfidence, varbench.DefaultBootstrap, 1, false))
	if err := st.PutJSON("varbench-compare/analysis", v1, stale); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	stored := append(args, "-store", dir)
	for i, wantReuse := range []bool{false, true} {
		var out bytes.Buffer
		var runErr error
		msg := captureStderr(t, func() { runErr = run(context.Background(), stored, &out) })
		if runErr != nil {
			t.Fatal(runErr)
		}
		if out.String() != clean.String() {
			t.Errorf("run %d with a v1 store differs from a storeless run:\n%s\n---\n%s", i, out.String(), clean.String())
		}
		if reused := strings.Contains(msg, "analysis reused"); reused != wantReuse {
			t.Errorf("run %d: analysis reused = %v, want %v (stderr %q)", i, reused, wantReuse, msg)
		}
	}
}
