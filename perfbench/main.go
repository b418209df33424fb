// Command perfbench is the repository's end-to-end benchmark. It imports the
// simulator, crawl-analysis and plan packages, times calls into their public
// functions on one of four workloads, checks every deterministic output
// against a digest recorded in digests.json, and prints one JSON result line.
//
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload scale-cohort --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a separate traced
// run that prints the per-layer block (spans, exact counts, derived ratios,
// the CPU-profile split by source file and the tracing overhead) and writes
// its spans as JSON lines at exit. --record re-records digests.json from the
// current code. README.md lists the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64 // input seed (see inputSeed), not the raw --seed
	seconds  float64
	trace    bool
	workers  int
	tiny     bool
	planDir  string
	spansDir string
	// want maps output ids to their recorded digests.
	want map[string]string
}

// Paths relative to the repository root, where run.sh starts the binary.
const (
	digestPath = "perfbench/digests.json"
	planDir    = "plans"
	spansDir   = ".bench_build/spans"
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", 1, "run seed; selects one of the recorded input seeds")
	heldOut := fs.Bool("held-out", false, "use the held-out input seed instead of --seed")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	record := fs.Bool("record", false, "re-record the output digests of every workload and input seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)

	if *record {
		if err := recordDigests(digestPath, planDir, workers, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if !knownWorkload(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames)
		return 2
	}
	if *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	recorded, err := loadDigests(digestPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	in := inputSeed(*name, *seed, *heldOut)
	want, ok := recorded[*name][digestKey(*name, in)]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: no recorded digests for %s at input seed %d\n", *name, in)
		return 1
	}
	cfg := config{
		workload: *name,
		seed:     in,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		workers:  workers,
		planDir:  planDir,
		spansDir: spansDir,
		want:     want,
	}
	rep, err := execute(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, rep)
	return 0
}

// report is the result line's shape.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// endToEnd holds a traced run's end-to-end metrics, taken from its
	// untraced half; they are printed above the per-layer block but are
	// not part of the result line.
	endToEnd map[string]metricValue
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printReport prints every metric with its unit, one per line, then the
// JSON result as the last line.
func printReport(w io.Writer, rep *report) {
	if rep.endToEnd != nil {
		fmt.Fprintln(w, "# end-to-end")
		printMetrics(w, rep.endToEnd)
		fmt.Fprintln(w, "# per-layer")
	}
	printMetrics(w, rep.Metrics)
	fmt.Fprintf(w, "ops: %d attempted, %d failed\n", rep.Attempted, rep.Failed)
	line, _ := json.Marshal(rep) // a map of finite floats always marshals
	fmt.Fprintf(w, "%s\n", line)
}

func printMetrics(w io.Writer, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// passStat is one timed pass with the resources it used.
type passStat struct {
	wall, cpu, alloc float64
	res              passResult
}

// execute runs set-up and the timed phase of one workload and computes the
// end-to-end metrics, or in traced mode the per-layer ones.
func execute(cfg config, logw io.Writer) (*report, error) {
	b, err := newBench(cfg)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	chk := newChecker(cfg.want, logw)
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		budget /= 2
	}

	// One untimed set-up and pass first let the process warm up (code
	// paged in, heap at its working size); the pass's outputs are checked
	// like every other pass's.
	if err := b.setup(tr, nil); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	b.prepare()
	chk.pass(b.pass(tr, nil))

	untraced, setups, err := timedPasses(b, tr, budget, chk)
	if err != nil {
		return nil, err
	}
	e2e := endToEndMetrics(setups, untraced, peakRSSMB())
	if !cfg.trace {
		return &report{
			Correct:   chk.failed == 0 && chk.attempted > 0,
			Attempted: chk.attempted,
			Failed:    chk.failed,
			Metrics:   e2e,
		}, nil
	}

	tr.on = true
	var traced []passStat
	prof, err := profiled(func() (err error) {
		traced, _, err = timedPasses(b, tr, budget, chk)
		return err
	})
	tr.on = false
	if err != nil {
		return nil, err
	}
	layer := b.extras(tr, chk, median(walls(untraced)))
	split, err := cpuSplit(prof)
	if err != nil {
		return nil, err
	}
	if err := tr.write(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	return &report{
		Correct:   chk.failed == 0 && chk.attempted > 0,
		Attempted: chk.attempted,
		Failed:    chk.failed,
		Metrics:   perLayerMetrics(b, tr, untraced, traced, layer, split, chk),
		endToEnd:  e2e,
	}, nil
}

// timedPasses alternates set-up and passes until the budget is spent (at
// least three passes). Each round rebuilds the inputs for about a twentieth
// of a pass's time (at least once), so set-up is timed across the same
// stretch of the run as the passes, and then runs one pass from a collected
// heap. It returns the passes and every set-up's duration in seconds.
func timedPasses(b bench, tr *tracer, budget time.Duration, chk *checker) ([]passStat, []float64, error) {
	const minPasses = 3
	var (
		out    []passStat
		setups []float64
	)
	start := time.Now()
	for {
		share := time.Duration(median(walls(out)) * float64(time.Second) / 20)
		ds, err := setupReps(b, tr, share)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, ds...)

		b.prepare()
		runtime.GC()
		a0, c0 := allocBytes(), cpuSeconds()
		sp := tr.start(nil, "pass")
		res := b.pass(tr, sp)
		wall := sp.end()
		out = append(out, passStat{
			wall:  wall.Seconds(),
			cpu:   cpuSeconds() - c0,
			alloc: float64(allocBytes() - a0),
			res:   res,
		})
		chk.pass(res)
		next := time.Duration(median(walls(out)) * float64(time.Second))
		if len(out) >= minPasses && time.Since(start)+next > budget {
			return out, setups, nil
		}
	}
}

// setupReps rebuilds the workload's inputs until d has passed, at least
// once, and returns each build's duration in seconds.
func setupReps(b bench, tr *tracer, d time.Duration) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		sp := tr.start(nil, "setup")
		err := b.setup(tr, sp)
		took := sp.end()
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		out = append(out, took.Seconds())
	}
	return out, nil
}

func endToEndMetrics(setups []float64, ps []passStat, rssMB float64) map[string]metricValue {
	var wall, cpu, alloc, rate []float64
	for _, p := range ps {
		wall = append(wall, p.wall)
		cpu = append(cpu, p.cpu)
		alloc = append(alloc, p.alloc/(1<<20))
		rate = append(rate, p.res.work/p.wall)
	}
	return withUnits(endToEnd, map[string]float64{
		"wall_s":      median(wall),
		"setup_s":     median(setups),
		"cpu_s":       median(cpu),
		"work_per_s":  median(rate),
		"alloc_mb":    median(alloc),
		"peak_rss_mb": rssMB,
	})
}

func perLayerMetrics(b bench, tr *tracer, untraced, traced []passStat, extra map[string]float64, split map[string]float64, chk *checker) map[string]metricValue {
	vals := map[string]float64{}
	for k, v := range tr.setupMedians() {
		vals[k] = v
	}
	// Span-derived values are medians over the traced passes.
	keys := map[string]bool{}
	for _, p := range traced {
		for k := range p.res.layer {
			keys[k] = true
		}
	}
	for k := range keys {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, p.res.layer[k])
		}
		vals[k] = median(xs)
	}
	// Exact counts repeat across passes (the checker enforces it).
	for k, v := range traced[0].res.counts {
		vals[k] = v
	}
	for k, v := range extra {
		vals[k] = v
	}
	for k, v := range split {
		vals[k] = v
	}

	uWall := median(walls(untraced))
	var cpu []float64
	for _, p := range untraced {
		cpu = append(cpu, p.cpu)
	}
	vals["runner.busy_frac"] = median(cpu) / (float64(b.workers()) * uWall)
	if ev := untraced[0].res.counts["sim.events"]; ev > 0 {
		vals["sim.ns_per_event"] = uWall / ev * 1e9
	}
	vals["trace.overhead_frac"] = median(walls(traced))/uWall - 1
	vals["analysis.unstable_outputs"] = float64(chk.unstable)
	vals["fail_frac"] = float64(chk.failed) / math.Max(1, float64(chk.attempted))
	return withUnits(perLayer, vals)
}

// withUnits attaches units to the named metrics. Every listed metric is
// reported; one a workload does not exercise reads 0.
func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out
}

func walls(ps []passStat) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.wall
	}
	return out
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile by the nearest-rank rule.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	if k < 1 {
		k = 1
	}
	return s[k-1]
}

// allocBytes reads the cumulative heap allocation counter.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's resident-set high-water mark (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
