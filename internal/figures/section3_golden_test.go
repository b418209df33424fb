package figures

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSection3Golden pins every rendered Section-3 table at SmallTraceScale
// for two crawl seeds by sha256, so an analysis rewrite must reproduce each
// table byte for byte. Refresh the file, after checking that a change in
// output is intended, with UPDATE_GOLDEN=1 go test ./internal/figures -run
// Section3Golden.
func TestSection3Golden(t *testing.T) {
	figs := []struct {
		id string
		fn func(*TraceEnv) (*Table, error)
	}{
		{"fig03", Fig03}, {"fig04", Fig04}, {"fig05", Fig05},
		{"fig06", Fig06}, {"fig07", Fig07}, {"fig08", Fig08},
		{"fig09", Fig09}, {"fig10", Fig10}, {"fig11", Fig11},
		{"fig12", Fig12}, {"tree-verdict", TreeVerdictTable},
	}
	var b strings.Builder
	for _, seed := range []int64{42, 7} {
		scale := SmallTraceScale()
		scale.Seed = seed
		env, err := NewTraceEnv(scale)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, f := range figs {
			tab, err := f.fn(env)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, f.id, err)
			}
			fmt.Fprintf(&b, "%d %s %x\n", seed, f.id, sha256.Sum256([]byte(tab.String())))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "section3_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("Section-3 tables deviate from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
