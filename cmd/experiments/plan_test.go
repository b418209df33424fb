package main

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeTestPlan drops a fast plan file into dir and returns its path.
func writeTestPlan(t *testing.T, dir, file, name, systems, extra string) string {
	t.Helper()
	js := `{
	  "name": "` + name + `",
	  "systems": [` + systems + `],
	  "servers": 12,
	  "users_per_server": 1,
	  "clusters": 3,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "90s", "mean_gap": "15s"}]},
	  ` + extra + `
	}`
	path := filepath.Join(dir, file)
	if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const passingAsserts = `"assert": [
	  {"metric": "user_observations", "op": ">", "value": 0},
	  {"metric": "crashes", "op": "==", "value": 0}
	]`

func writeTestCatalog(t *testing.T, dir string) {
	t.Helper()
	writeTestPlan(t, dir, "10-a.json", "alpha", `"TTL", "Push"`, passingAsserts)
	writeTestPlan(t, dir, "20-b.json", "beta", `"HAT"`, passingAsserts)
}

func TestPlanCatalogRuns(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	junit := filepath.Join(t.TempDir(), "report.xml")
	out, _, err := runCLI(t, "-plan-catalog", dir, "-junit", junit)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{
		"== plan alpha/TTL/s1 ==", "== plan alpha/Push/s1 ==", "== plan beta/HAT/s1 ==",
		"plans: 3 cells, 3 passed, 0 failed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("stdout missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "FAIL") {
		t.Errorf("unexpected failure in stdout:\n%s", out)
	}
	// Catalog order follows filenames, not plan names.
	if strings.Index(out, "alpha/TTL") > strings.Index(out, "beta/HAT") {
		t.Errorf("catalog emitted out of order:\n%s", out)
	}
	report, err := os.ReadFile(junit)
	if err != nil {
		t.Fatalf("junit report: %v", err)
	}
	if !strings.Contains(string(report), `tests="3" failures="0" errors="0"`) {
		t.Errorf("junit counts wrong:\n%s", report)
	}
}

func TestPlanParallelByteIdentical(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	serial, _, err := runCLI(t, "-plan-catalog", dir, "-parallel", "1")
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	par, _, err := runCLI(t, "-plan-catalog", dir, "-parallel", "4")
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial != par {
		t.Errorf("stdout differs across -parallel:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, par)
	}
}

func TestPlanSeededViolationFails(t *testing.T) {
	dir := t.TempDir()
	writeTestPlan(t, dir, "bad.json", "bad", `"TTL"`,
		`"assert": [{"metric": "p99_user_inconsistency", "op": "<=", "value": 0.001}]`)
	junit := filepath.Join(t.TempDir(), "report.xml")
	out, _, err := runCLI(t, "-plan", filepath.Join(dir, "bad.json"), "-junit", junit)
	if err == nil || !strings.Contains(err.Error(), "1 of 1 plan cells failed") {
		t.Fatalf("seeded violation did not fail the run: %v", err)
	}
	if !strings.Contains(out, "FAIL\tp99_user_inconsistency <= 0.001") {
		t.Errorf("stdout missing FAIL line:\n%s", out)
	}
	report, rerr := os.ReadFile(junit)
	if rerr != nil {
		t.Fatalf("junit report not written on failure: %v", rerr)
	}
	if !strings.Contains(string(report), `<failure message="1 assertion(s) failed">`) ||
		!strings.Contains(string(report), "p99_user_inconsistency &lt;= 0.001: got ") {
		t.Errorf("junit missing failure message with assertion detail:\n%s", report)
	}
}

// cancelOnFirstWrite cancels a context the moment the first stdout byte lands,
// interrupting a catalog mid-matrix the way a SIGTERM would.
type cancelOnFirstWrite struct {
	w      io.Writer
	once   sync.Once
	cancel context.CancelFunc
}

func (c *cancelOnFirstWrite) Write(p []byte) (int, error) {
	c.once.Do(c.cancel)
	return c.w.Write(p)
}

func TestPlanResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	// A deliberately heavier trailing plan: with one worker the cancellation
	// fired by the first cell's emission always lands while this one is
	// still simulating, so the interruption is genuinely mid-matrix.
	if err := os.WriteFile(filepath.Join(dir, "30-c.json"), []byte(`{
	  "name": "gamma",
	  "systems": ["TTL"],
	  "servers": 100,
	  "users_per_server": 3,
	  "clusters": 10,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "20m", "mean_gap": "10s"}]},
	  `+passingAsserts+`
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	full, _, err := runCLI(t, "-plan-catalog", dir, "-parallel", "1")
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial bytes.Buffer
	err = run(ctx, []string{"-plan-catalog", dir, "-parallel", "1", "-checkpoint", ck},
		&cancelOnFirstWrite{w: &partial, cancel: cancel}, io.Discard)
	if err == nil {
		t.Fatal("interrupted run finished cleanly; cancellation came too late to test resume")
	}
	if !strings.Contains(err.Error(), "-resume "+ck) {
		t.Fatalf("interrupted run did not hint at -resume: %v", err)
	}

	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-plan-catalog", dir, "-parallel", "1", "-resume", ck}, &out, &errb); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out.String() != full {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- resumed ---\n%s\n--- full ---\n%s", out.String(), full)
	}
	if !strings.Contains(errb.String(), "restored from checkpoint") {
		t.Errorf("resume recomputed every cell (no restores):\n%s", errb.String())
	}
}

// A plan's compare block is judged from its cells' metrics, so a resume that
// restores some cells from the journal must print the same compare verdict
// as an uninterrupted run.
func TestPlanResumeCompareByteIdentical(t *testing.T) {
	// Heavy enough that the cancellation fired by the first cell's
	// emission lands while the second cell is still simulating.
	path := filepath.Join(t.TempDir(), "cmp.json")
	if err := os.WriteFile(path, []byte(`{
	  "name": "cmp",
	  "systems": ["Push", "TTL"],
	  "servers": 100,
	  "users_per_server": 3,
	  "clusters": 10,
	  "server_ttl": "5s",
	  "game": {"phases": [{"name": "play", "duration": "20m", "mean_gap": "10s"}]},
	  "assert": [{"metric": "user_observations", "op": ">", "value": 0}],
	  "compare": [{"metric": "light_msgs", "left": "TTL", "right": "Push", "op": ">"}]
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	full, _, err := runCLI(t, "-plan", path, "-parallel", "1")
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	if !strings.Contains(full, "PASS\tcompare light_msgs") {
		t.Fatalf("uninterrupted run printed no passing compare:\n%s", full)
	}

	ck := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var partial bytes.Buffer
	err = run(ctx, []string{"-plan", path, "-parallel", "1", "-checkpoint", ck},
		&cancelOnFirstWrite{w: &partial, cancel: cancel}, io.Discard)
	if err == nil {
		t.Fatal("interrupted run finished cleanly; cancellation came too late to test resume")
	}

	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-plan", path, "-parallel", "1", "-resume", ck}, &out, &errb); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if out.String() != full {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- resumed ---\n%s\n--- full ---\n%s", out.String(), full)
	}
	if !strings.Contains(errb.String(), "cmp/Push/s1 restored from checkpoint") {
		t.Errorf("resume did not restore the journaled cell:\n%s", errb.String())
	}
}

func TestPlanResumeRefusesEditedPlans(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	ck := t.TempDir()
	if _, _, err := runCLI(t, "-plan-catalog", dir, "-checkpoint", ck); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	// Any plan edit changes the catalog fingerprint; stale results must not
	// be replayed against the new plans.
	writeTestPlan(t, dir, "20-b.json", "beta", `"HAT"`,
		`"assert": [{"metric": "user_observations", "op": ">", "value": 1}]`)
	if _, _, err := runCLI(t, "-plan-catalog", dir, "-resume", ck); err == nil {
		t.Fatal("resume accepted a checkpoint for edited plans")
	}
}

func TestPlanModeFlagValidation(t *testing.T) {
	dir := t.TempDir()
	writeTestCatalog(t, dir)
	cases := []struct {
		args    []string
		wantErr string
	}{
		{[]string{"-plan", "x.json", "-plan-catalog", dir}, "mutually exclusive"},
		{[]string{"-junit", "r.xml"}, "-junit requires"},
		{[]string{"-plan-catalog", dir, "-scale", "small"}, "cannot be combined"},
		{[]string{"-plan-catalog", dir, "-only", "fig16"}, "cannot be combined"},
		{[]string{"-plan-catalog", dir, "-audit", "-shards", "2"}, "cannot be combined"},
		{[]string{"-plan-catalog", t.TempDir()}, "no *.json plans"},
	}
	for _, tc := range cases {
		_, _, err := runCLI(t, tc.args...)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%v: error %v does not mention %q", tc.args, err, tc.wantErr)
		}
	}
}

func TestOnlyUnknownIDsListed(t *testing.T) {
	_, _, err := runCLI(t, "-only", "zzz,fig16,fig99")
	if err == nil {
		t.Fatal("unknown ids accepted")
	}
	msg := err.Error()
	// Every unknown id is named (sorted), and the valid set is listed.
	if !strings.Contains(msg, `"fig99", "zzz"`) {
		t.Errorf("error does not list all unknown ids sorted: %q", msg)
	}
	if !strings.Contains(msg, "valid ids: ") || !strings.Contains(msg, "fig03") ||
		!strings.Contains(msg, "ablation-depth") {
		t.Errorf("error does not list valid ids: %q", msg)
	}
	if strings.Contains(msg, `"fig16"`) {
		t.Errorf("error names a valid id as unknown: %q", msg)
	}
}

// TestTimeoutedJobNotJournaled pins the -timeout x -checkpoint contract: a
// job killed by its per-job deadline is not journaled, and a later -resume
// recomputes it, yielding stdout byte-identical to an uninterrupted run.
func TestTimeoutedJobNotJournaled(t *testing.T) {
	full, _, err := runCLI(t, "-scale", "small", "-only", "fig16")
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	ck := t.TempDir()
	_, _, err = runCLI(t, "-scale", "small", "-only", "fig16", "-checkpoint", ck, "-timeout", "1ns")
	if err == nil || !strings.Contains(err.Error(), "deadline") {
		t.Fatalf("1ns deadline did not kill the job: %v", err)
	}

	out, errb, err := runCLI(t, "-scale", "small", "-only", "fig16", "-resume", ck)
	if err != nil {
		t.Fatalf("resume after timeout: %v", err)
	}
	if strings.Contains(errb, "restored from checkpoint") {
		t.Errorf("timed-out job was journaled and replayed:\n%s", errb)
	}
	if out != full {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- resumed ---\n%s\n--- full ---\n%s", out, full)
	}
}
