// Command perfbench is varbench's end-to-end benchmark. It drives the
// library through its public API in a closed loop — one operation at a
// time, from one process — on one of four workloads, checks every output,
// and prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every input derives from -seed. Build and run it from the repository root
// with perfbench/run.sh; PREDICTIONS.md lists which layer metric should move
// which end-to-end metric on which workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"varbench/store"
)

// bootstrapK is the resample count of every analysis, the library default.
const bootstrapK = 1000

// warmSeed seeds the warm-up inputs of every set-up, whatever the run's
// seed, so set-up does the same work in every run.
const warmSeed = 0x5e7

// p99MinOps is the fewest ops a block may hold for its p99 to have ten
// samples beyond it.
const p99MinOps = 1000

// setupRepeats is how many times a run sets up its workload; setup_s is the
// median.
const setupRepeats = 7

// A phase is one set-up plus closed loop of a workload, with its own
// scratch directory. The traced run has an untraced and a traced phase.
type phase struct {
	dir  string
	seed uint64
	par  int     // GOMAXPROCS, Parallelism and AnalysisParallelism
	tr   *tracer // nil when untraced

	opens     []float64 // store open times, ns
	diskBytes int64     // bytes in closed stores' directories

	// Experiment.Run outcomes, summed over the ops.
	pairs, earlyStopped int
}

// A workload is driven deck by deck: a deck is a fixed multiset of ops in a
// seed-shuffled order, so every run measures the same mix. Throughput
// metrics are medians over blocks of whole decks, so a burst of load from
// elsewhere on the machine moves one block, not the run's figure.
type workload interface {
	// setup makes the program state the ops need and returns the time spent
	// in the program's own set-up calls (not in input generation).
	setup(p *phase) (time.Duration, error)
	deckLen() int
	blockDecks() int
	// prepare generates the inputs of deck d, untimed.
	prepare(p *phase, d int) error
	// run performs op i (timed) and returns how many score pairs or
	// measures it processed.
	run(p *phase, i int) (int, error)
	// check verifies op i's output, untimed.
	check(p *phase, i int) error
	// finish runs the end-of-phase output checks, untimed.
	finish(p *phase) error
	close(p *phase) error
}

var workloads = map[string]func(seed uint64) workload{
	"analyze":  newAnalyze,
	"collect":  newCollect,
	"watch":    newWatch,
	"variance": newVariance,
}

type opStat struct {
	lat, cpu float64 // ns
	scores   int
	ok       bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// loopStats is what a closed loop measured.
type loopStats struct {
	ops     []opStat // every op attempted, in order
	ok      int      // ops that succeeded
	busy    float64  // their summed latency, ns
	failed  int
	allocs  float64 // heap bytes allocated inside ops (traced phase only)
	peakRSS float64 // MB, before the end-of-phase checks
	gcs     uint32
	gcPause uint64
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload: analyze, collect, watch or variance")
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Float64("seconds", 15, "how long the closed loop measures")
	trace := flag.Int("trace", 0, "1: report per-layer metrics of a traced run instead of end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for scratch stores, score files and the span dump")
	flag.Parse()
	mk, ok := workloads[*name]
	if (!ok && *name != "all") || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload analyze|collect|watch|variance|all, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *dir)
	}
	par := min(runtime.NumCPU(), 2)
	runtime.GOMAXPROCS(par)
	host := hostInfo()
	fmt.Println("host", host)

	work, err := os.MkdirTemp(*dir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	dur := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if *trace == 0 {
		rep, err = endToEnd(mk, *seed, par, work, dur)
	} else {
		spans := filepath.Join(*dir, fmt.Sprintf("spans-%s-seed%d.csv", *name, *seed))
		rep, err = traced(mk, *seed, par, work, dur, spans, host)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// runAll runs every workload in its own process, one after another, prints
// their outputs and ends with one line that sums them, its metrics named
// <workload>.<metric>.
func runAll(seed uint64, seconds float64, trace int, dir string) int {
	sum := report{Correct: true, Metrics: map[string]metric{}}
	for _, name := range []string{"analyze", "collect", "watch", "variance"} {
		cmd := exec.Command(os.Args[0], "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-dir", dir)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		fmt.Printf("== %s\n%s", name, out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var r report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		sum.Correct = sum.Correct && r.Correct
		sum.Attempted += r.Attempted
		sum.Failed += r.Failed
		for k, v := range r.Metrics {
			sum.Metrics[name+"."+k] = v
		}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// endToEnd sets the workload up setupRepeats times, measures the closed
// loop for dur on the last set-up, and reports the end-to-end metrics.
func endToEnd(mk func(uint64) workload, seed uint64, par int, work string, dur time.Duration) (*report, error) {
	w, p, setupS, err := setUp(mk, seed, par, work, false)
	if err != nil {
		return nil, err
	}
	ls, err := loop(w, p, dur, 0)
	if err != nil {
		return nil, err
	}
	// Throughput and CPU per op: medians over blocks of blockDecks decks.
	var opsPerS, scoresPerS, cpuPerOp []float64
	for _, b := range blocks(ls.ops, w.deckLen()*w.blockDecks()) {
		var n, scores int
		var busy, cpu float64
		for _, o := range b {
			if o.ok {
				n++
				scores += o.scores
				busy += o.lat
				cpu += o.cpu
			}
		}
		if n > 0 {
			opsPerS = append(opsPerS, float64(n)/(busy/1e9))
			scoresPerS = append(scoresPerS, float64(scores)/(busy/1e9))
			cpuPerOp = append(cpuPerOp, cpu/1e6/float64(n))
		}
	}
	// p99: the median over blocks of whole decks holding at least
	// p99MinOps ops each, so every block's p99 has ten samples beyond it;
	// with fewer than three such blocks, the p99 of the whole run.
	decks := (p99MinOps + w.deckLen() - 1) / w.deckLen()
	tail := blocks(ls.ops, decks*w.deckLen())
	if len(tail) < 3 {
		tail = [][]opStat{ls.ops}
	}
	var p99s []float64
	beyond := len(ls.ops)
	for _, b := range tail {
		lat := latencies(b)
		p99s = append(p99s, quantile(lat, 0.99))
		beyond = min(beyond, len(lat)-int(math.Ceil(0.99*float64(len(lat)))))
	}
	m := map[string]metric{
		"setup_s":       {setupS, "s"},
		"ops_per_s":     {median(opsPerS), "1/s"},
		"op_p50_ms":     {quantile(latencies(ls.ops), 0.50) / 1e6, "ms"},
		"op_p99_ms":     {median(p99s) / 1e6, "ms"},
		"scores_per_s":  {median(scoresPerS), "1/s"},
		"cpu_ms_per_op": {median(cpuPerOp), "ms"},
		"peak_rss_mb":   {ls.peakRSS, "MB"},
	}
	fmt.Printf("ops %d: throughput over %d blocks, p99 over %d blocks with ≥%d samples beyond it\n", ls.ok, len(opsPerS), len(p99s), beyond)
	printMetrics(m)
	fmt.Printf("%-28s %14.6g %s\n", "failed_ratio", float64(ls.failed)/float64(len(ls.ops)), "ratio")
	return &report{Correct: ls.failed == 0, Attempted: len(ls.ops), Failed: ls.failed, Metrics: m}, nil
}

// traced runs an untraced phase for half of dur, then the same ops again
// traced, and reports the per-layer metrics of the traced phase.
func traced(mk func(uint64) workload, seed uint64, par int, work string, dur time.Duration, spans, host string) (*report, error) {
	w, p, _, err := setUp(mk, seed, par, filepath.Join(work, "untraced"), false)
	if err != nil {
		return nil, err
	}
	plain, err := loop(w, p, dur/2, 0)
	if err != nil {
		return nil, err
	}
	w, p, _, err = setUp(mk, seed, par, filepath.Join(work, "traced"), true)
	if err != nil {
		return nil, err
	}
	ls, err := loop(w, p, 0, len(plain.ops))
	if err != nil {
		return nil, err
	}
	m, err := layerMetrics(p, ls, plain)
	if err != nil {
		// A child span outside its parent means the trace cannot account
		// for the op's time: report it as a failed output check.
		fmt.Fprintln(os.Stderr, "perfbench: trace:", err)
		ls.failed++
	}
	if err := p.tr.write(spans, host); err != nil {
		return nil, err
	}
	attempted, failed := len(plain.ops)+len(ls.ops), plain.failed+ls.failed
	m["failed_ratio"] = metric{float64(failed) / float64(attempted), "ratio"}
	fmt.Printf("ops %d per phase, attempted %d, failed %d, spans %d in %s\n", ls.ok, attempted, failed, len(p.tr.spans), spans)
	printMetrics(m)
	return &report{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// setUp performs setupRepeats set-ups, each in a fresh directory, keeps the
// last and returns the median set-up time in seconds.
func setUp(mk func(uint64) workload, seed uint64, par int, dir string, traced bool) (workload, *phase, float64, error) {
	var times []float64
	for k := 0; ; k++ {
		p := &phase{dir: filepath.Join(dir, fmt.Sprint("setup", k)), seed: seed, par: par}
		if traced {
			p.tr = newTracer()
		}
		if err := os.MkdirAll(p.dir, 0o755); err != nil {
			return nil, nil, 0, err
		}
		w := mk(seed)
		d, err := w.setup(p)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, d.Seconds())
		if traced {
			// Only the ops' spans feed the per-layer metrics.
			p.tr.spans, p.tr.cur = nil, -1
			p.tr.lookups.Store(0)
			p.tr.hits.Store(0)
			p.tr.batches.Store(0)
		}
		if k == setupRepeats-1 || traced {
			sort.Float64s(times)
			return w, p, quantile(times, 0.5), nil
		}
		if err := w.close(p); err != nil {
			return nil, nil, 0, err
		}
		if err := os.RemoveAll(p.dir); err != nil {
			return nil, nil, 0, err
		}
	}
}

// loop runs whole decks until dur has passed (dur > 0) or ops ops are done,
// timing each op alone. An op that errors or fails its check counts as
// failed and the loop goes on.
func loop(w workload, p *phase, dur time.Duration, ops int) (loopStats, error) {
	var ls loopStats
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	begin := time.Now()
	for d := 0; ; d++ {
		if (dur > 0 && time.Since(begin) >= dur) || (dur <= 0 && len(ls.ops) >= ops) {
			break
		}
		if err := w.prepare(p, d); err != nil {
			return ls, fmt.Errorf("prepare deck %d: %w", d, err)
		}
		for j := 0; j < w.deckLen() && (dur > 0 || len(ls.ops) < ops); j++ {
			i := d*w.deckLen() + j
			p.tr.startOp(i)
			var a0 uint64
			if p.tr != nil {
				metrics.Read(alloc)
				a0 = alloc[0].Value.Uint64()
			}
			c0 := cpuTime()
			t0 := time.Now()
			n, err := w.run(p, i)
			lat := float64(time.Since(t0))
			cpu := float64(cpuTime() - c0)
			if p.tr != nil {
				metrics.Read(alloc)
				ls.allocs += float64(alloc[0].Value.Uint64() - a0)
			}
			if err == nil {
				err = w.check(p, i)
			}
			ls.ops = append(ls.ops, opStat{lat: lat, cpu: cpu, scores: n, ok: err == nil})
			if err != nil {
				ls.failed++
				fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
				continue
			}
			ls.ok++
			ls.busy += lat
		}
	}
	ls.peakRSS = peakRSS()
	if err := w.finish(p); err != nil {
		ls.failed++
		fmt.Fprintln(os.Stderr, "perfbench: final check:", err)
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ls.gcs = ms1.NumGC - ms0.NumGC
	ls.gcPause = ms1.PauseTotalNs - ms0.PauseTotalNs
	if err := w.close(p); err != nil {
		return ls, err
	}
	if ls.ok == 0 {
		return ls, fmt.Errorf("no op succeeded")
	}
	return ls, nil
}

// layerMetrics derives the per-layer metrics from the traced phase's spans
// and counters. Layers a workload does not exercise report 0.
func layerMetrics(p *phase, ls, plain loopStats) (map[string]metric, error) {
	t := p.tr
	ops := float64(ls.ok)
	var small, multi, large []float64
	var largeDraws float64
	for _, s := range t.spans {
		switch {
		case s.name == "analyze.paired" && s.arg <= 29:
			small = append(small, float64(s.dur()))
		case s.name == "analyze.paired" && s.arg >= 1000:
			large = append(large, float64(s.dur()))
			largeDraws += float64(bootstrapK * s.arg)
		case s.name == "analyze.multi":
			multi = append(multi, float64(s.dur()))
		}
	}
	total, self, err := t.selfTime("collect.Run")
	if total > 0 {
		fmt.Printf("collect.Run spans: %v = self %v + children %v\n", total, self, total-self)
	}
	sum := func(name string) (total, args float64) {
		for _, s := range t.spans {
			if s.name == name {
				total += float64(s.dur())
				args += float64(s.arg)
			}
		}
		return total, args
	}
	extend, pairs := sum("stream.Extend")
	feed, lines := sum("tail.Feed")
	busy, calls := 0.0, 0.0
	for _, d := range t.durations("pipeline") {
		busy += d
		calls++
	}
	m := map[string]metric{
		"analyze.small.call_us_p50":  {median(small) / 1e3, "us"},
		"analyze.large.ns_per_draw":  {ratio(sumOf(large), largeDraws), "ns"},
		"analyze.multi.call_ms_p50":  {median(multi) / 1e6, "ms"},
		"collect.self_ms_per_op":     {float64(self) / 1e6 / ops, "ms"},
		"collect.pairs_per_op":       {float64(p.pairs) / ops, "count"},
		"collect.batches_per_op":     {float64(t.batches.Load()) / ops, "count"},
		"collect.early_stop_ratio":   {float64(p.earlyStopped) / ops, "ratio"},
		"collect.reuse_ratio":        {ratio(float64(t.hits.Load()), float64(t.lookups.Load())), "ratio"},
		"stream.extend_us_per_pair":  {ratio(extend/1e3, pairs), "us"},
		"stream.result_us_p50":       {median(t.durations("stream.Result")) / 1e3, "us"},
		"render.us_p50":              {median(t.durations("render")) / 1e3, "us"},
		"stream.flush_ms_p50":        {median(t.durations("stream.Flush")) / 1e6, "ms"},
		"store.flush_ms_p50":         {median(t.durations("store.Flush")) / 1e6, "ms"},
		"tail.ns_per_line":           {ratio(feed, lines), "ns"},
		"store.put_us_p50":           {median(t.durations("store.Put")) / 1e3, "us"},
		"store.putjson_us_p50":       {median(t.durations("store.PutJSON")) / 1e3, "us"},
		"store.putjson_calls_per_op": {float64(len(t.durations("store.PutJSON"))) / ops, "count"},
		"store.getjson_us_p50":       {median(t.durations("store.GetJSON")) / 1e3, "us"},
		"store.disk_bytes_per_op":    {float64(p.diskBytes) / ops, "B"},
		"store.open_ms":              {median(p.opens) / 1e6, "ms"},
		"pipeline.calls_per_op":      {calls / ops, "count"},
		"pipeline.busy_ms_per_op":    {busy / 1e6 / ops, "ms"},
		"runtime.alloc_kb_per_op":    {ls.allocs / 1024 / ops, "KiB"},
		"runtime.gc_per_kop":         {float64(ls.gcs) * 1000 / ops, "count"},
		"runtime.gc_pause_ms":        {ratio(float64(ls.gcPause)/1e6, float64(ls.gcs)), "ms"},
		"trace.overhead_ratio":       {ratio(ls.busy, plain.busy), "ratio"},
	}
	return m, err
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

// blocks splits ops into consecutive blocks of size; a shorter tail is
// dropped unless it is the only block.
func blocks(ops []opStat, size int) [][]opStat {
	if len(ops) <= size {
		return [][]opStat{ops}
	}
	var out [][]opStat
	for lo := 0; lo+size <= len(ops); lo += size {
		out = append(out, ops[lo:lo+size])
	}
	return out
}

// latencies returns the sorted latencies of the ops that succeeded.
func latencies(ops []opStat) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.ok {
			lat = append(lat, o.lat)
		}
	}
	sort.Float64s(lat)
	return lat
}

// quantile interpolates linearly between order statistics of sorted x.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(x []float64) float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func sumOf(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (the layer saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS returns the process's maximum resident set size in MB.
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// hostInfo describes the machine a result was measured on.
func hostInfo() string {
	cpu := runtime.GOARCH
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	b, _ := json.Marshal(map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpu,
		"go":         runtime.Version(),
	})
	return string(b)
}

// openStore opens a fresh seglog store under the phase directory, recording
// the open time, and wraps it for tracing when the phase is traced.
func (p *phase) openStore(name string) (store.Backend, error) {
	t0 := time.Now()
	b, err := store.OpenDSN("seglog:" + filepath.Join(p.dir, name))
	p.opens = append(p.opens, float64(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	return p.tr.traceStore(b), nil
}

// dropStore closes a store opened by openStore, adds its size on disk to
// the phase's count and deletes it.
func (p *phase) dropStore(b store.Backend, name string) error {
	err := b.Close()
	dir := filepath.Join(p.dir, name)
	p.diskBytes += dirSize(dir)
	if rmErr := os.RemoveAll(dir); err == nil {
		err = rmErr
	}
	return err
}

// dirSize returns the total size of the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}
