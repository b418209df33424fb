package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// tinyPass runs set-up and one pass of a workload at test size.
func tinyPass(t *testing.T, name string, seed int64, workers int) passResult {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	b, err := newBench(config{workload: name, seed: seed, workers: workers, tiny: true, planDir: "../plans"})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.setup(newTracer(), nil); err != nil {
		t.Fatalf("%s setup: %v", name, err)
	}
	b.prepare()
	res := b.pass(newTracer(), nil)
	for _, o := range res.outputs {
		if o.err != nil || o.failed {
			t.Fatalf("%s: %s failed: %v", name, o.id, o.err)
		}
	}
	if len(res.outputs) == 0 {
		t.Fatalf("%s: no outputs", name)
	}
	return res
}

func sameDigests(t *testing.T, what string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d outputs vs %d", what, len(a), len(b))
	}
	for id, d := range a {
		if b[id] != d && !unstableOutputs[id] {
			t.Errorf("%s: %s digest %s vs %s", what, id, d, b[id])
		}
	}
}

// The oracle is only as good as the outputs are deterministic: two passes,
// and passes at one and two workers, must produce identical digests and
// identical exact counts.
func TestTinyDigestsStable(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			first := tinyPass(t, name, 3, 2)
			again := tinyPass(t, name, 3, 2)
			serial := tinyPass(t, name, 3, 1)
			sameDigests(t, "rerun", digestsOf(first), digestsOf(again))
			sameDigests(t, "1 vs 2 workers", digestsOf(first), digestsOf(serial))
			if !sameCounts(first.counts, again.counts) || !sameCounts(first.counts, serial.counts) {
				t.Errorf("exact counts differ: %v, %v, %v", first.counts, again.counts, serial.counts)
			}
		})
	}
}

func tinyRun(t *testing.T, name string, traced bool, want map[string]string) *report {
	t.Helper()
	rep, err := execute(config{
		workload: name, seed: 3, seconds: 0.01, trace: traced, workers: runtime.GOMAXPROCS(0),
		tiny: true, planDir: "../plans", spansDir: t.TempDir(), want: want,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// A run whose outputs match the recorded digests is correct; one digest
// corrupted makes the run fail, in both modes, and raises fail_frac.
func TestCorruptedDigestFails(t *testing.T) {
	const name = "scale-cohort"
	want := digestsOf(tinyPass(t, name, 3, runtime.GOMAXPROCS(0)))
	if rep := tinyRun(t, name, false, want); !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
		t.Fatalf("clean run: correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
	}
	bad := map[string]string{}
	for id, d := range want {
		bad[id] = d
	}
	bad["run"] = strings.Repeat("0", len(want["run"]))
	for _, traced := range []bool{false, true} {
		rep := tinyRun(t, name, traced, bad)
		if rep.Correct || rep.Failed == 0 {
			t.Fatalf("traced=%v: corrupted digest passed: attempted=%d failed=%d", traced, rep.Attempted, rep.Failed)
		}
		if traced && rep.Metrics["fail_frac"].Value <= 0 {
			t.Fatalf("traced: fail_frac = %v", rep.Metrics["fail_frac"].Value)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the metric names live in.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// Every metric a run prints is declared in BENCHMARK.json with the same
// unit, and uses only [A-Za-z0-9_.-].
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, BENCHMARK.json lists %v", workloadNames, names)
	}
	declared := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range list {
			m[d.Name] = d.Unit
		}
		return m
	}
	for _, mode := range []struct {
		traced bool
		want   map[string]string
	}{{false, declared(bj.EndToEnd)}, {true, declared(bj.PerLayer)}} {
		rep := tinyRun(t, "plan-catalog", mode.traced, nil)
		var out bytes.Buffer
		printReport(&out, rep)
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result: %v", err)
		}
		if len(last.Metrics) != len(mode.want) {
			t.Errorf("traced=%v: printed %d metrics, BENCHMARK.json declares %d", mode.traced, len(last.Metrics), len(mode.want))
		}
		for n, m := range last.Metrics {
			if !metricNameRE.MatchString(n) {
				t.Errorf("metric name %q", n)
			}
			if unit, ok := mode.want[n]; !ok || unit != m.Unit {
				t.Errorf("traced=%v: %s (%s) not declared with that unit in BENCHMARK.json", mode.traced, n, m.Unit)
			}
		}
	}
}
