package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.txt from the current outputs")

// goldenCases are small-scale invocations covering every flag family the
// scenario compiler handles. Each one's stdout is pinned by its sha256 in
// testdata/golden.txt.
var goldenCases = []struct {
	name string
	args []string
}{
	{"named-system", small("-system", "HAT")},
	{"method-infra", small("-method", "Lease", "-infra", "Unicast")},
	{"switch", small("-system", "TTL", "-switch")},
	{"cohort-generated", small("-system", "HAT", "-usermodel", "cohort", "-cohorts", "3")},
	{"cohort-file", small("-system", "TTL", "-usermodel", "cohort", "-population", "@testdata/population.json")},
	{"faults-mixed", small("-system", "TTL", "-faults", "mixed", "-failover")},
	{"faults-file", small("-system", "Invalidation", "-faults", "@testdata/faults.json")},
	{"federation-count", small("-system", "TTL", "-federation", "3", "-faults", "provider-storm", "-failover")},
	{"federation-file", small("-system", "Invalidation", "-federation", "@testdata/federation.json")},
	{"sharded", small("-system", "HAT", "-shards", "2", "-shardcells", "4")},
	{"audited", small("-system", "HAT", "-audit", "-audit-cadence", "5s")},
	{"import", []string{"-system", "TTL", "-import", "../../plans/bundles/smoke.json", "-clusters", "4"}},
}

// importPathRE matches the path field of the `import` line, which names
// the file and would pin the test to one checkout layout.
var importPathRE = regexp.MustCompile(`(?m)^import\t\S+ `)

// TestRunGolden pins the exact stdout of each golden invocation, so a change
// to how flags become simulation options cannot shift results silently.
// Regenerate with `go test ./cmd/cdnsim -run TestRunGolden -update` only
// when a model change is intended.
func TestRunGolden(t *testing.T) {
	var lines []string
	for _, c := range goldenCases {
		out, err := runCLI(t, c.args)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out = importPathRE.ReplaceAllString(out, "import\t")
		sum := sha256.Sum256([]byte(out))
		lines = append(lines, fmt.Sprintf("%s %s", c.name, hex.EncodeToString(sum[:])))
	}
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "golden.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("stdout digests changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
