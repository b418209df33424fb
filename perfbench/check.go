package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// output is one operation's deterministic result: a core.Run, a figure call
// or a plan cell.
type output struct {
	id     string
	digest string
	err    error
	// failed marks an operation that ran but failed its own checks (a plan
	// cell with a failed assertion).
	failed bool
}

// passResult is everything one pass produced.
type passResult struct {
	outputs []output
	// whole holds pass-level digests (the catalog's junit report and cell
	// list); a mismatch fails every operation of the pass.
	whole map[string]string
	// work is the pass's unit of throughput: simulation events, or crawl
	// records analysed.
	work float64
	// counts are exact per-layer counts; they must repeat on every pass.
	counts map[string]float64
	// layer holds the pass's span-derived per-layer values.
	layer map[string]float64
}

// wholePrefix marks pass-level entries among an input seed's digests.
const wholePrefix = "pass:"

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

func digestString(s string) string { return digest([]byte(s)) }

// metricsDigest digests a name->value map in name order, with each value in
// its shortest round-trip form.
func metricsDigest(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%s\n", k, strconv.FormatFloat(m[k], 'g', -1, 64))
	}
	return digest(b.Bytes())
}

// digestsOf flattens a pass into the id->digest map the oracle records.
func digestsOf(res passResult) map[string]string {
	out := map[string]string{}
	for _, o := range res.outputs {
		out[o.id] = o.digest
	}
	for k, v := range res.whole {
		out[wholePrefix+k] = v
	}
	return out
}

// checker compares every pass against the recorded digests and tallies
// operations attempted and failed.
type checker struct {
	want              map[string]string
	log               io.Writer
	attempted, failed int
	// unstable counts mismatches of unstableOutputs.
	unstable int
	// counts is the first pass's exact counts; later passes must match.
	counts map[string]float64
	logged int
}

func newChecker(want map[string]string, log io.Writer) *checker {
	return &checker{want: want, log: log}
}

func (c *checker) logf(format string, args ...any) {
	const maxLines = 20
	if c.logged < maxLines {
		fmt.Fprintf(c.log, "perfbench: "+format+"\n", args...)
	}
	c.logged++
}

// pass checks one pass: every operation must succeed and match its digest,
// every recorded operation must have run, pass-level digests must match,
// and the exact counts must repeat.
func (c *checker) pass(res passResult) {
	seen := map[string]bool{}
	bad := 0
	for _, o := range res.outputs {
		seen[o.id] = true
		switch want, ok := c.want[o.id]; {
		case o.err != nil:
			c.logf("%s: %v", o.id, o.err)
		case o.failed:
			c.logf("%s: failed its checks", o.id)
		case !ok:
			c.logf("%s: no recorded digest", o.id)
		case want != o.digest && unstableOutputs[o.id]:
			c.unstable++
			c.logf("%s: digest %s, recorded %s (known unstable output, not failed)", o.id, o.digest, want)
			continue
		case want != o.digest:
			c.logf("%s: digest %s, recorded %s", o.id, o.digest, want)
		default:
			continue
		}
		bad++
	}
	ids := make([]string, 0, len(c.want))
	for id := range c.want {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	missing := 0
	wholeOK := true
	for _, id := range ids {
		if k, isWhole := strings.CutPrefix(id, wholePrefix); isWhole {
			if res.whole[k] != c.want[id] {
				c.logf("%s: digest %s, recorded %s", id, res.whole[k], c.want[id])
				wholeOK = false
			}
			continue
		}
		if !seen[id] {
			c.logf("%s: recorded but not produced", id)
			missing++
		}
	}
	if c.counts == nil {
		c.counts = res.counts
	} else if !sameCounts(c.counts, res.counts) {
		c.logf("exact counts changed between passes: %v then %v", c.counts, res.counts)
		wholeOK = false
	}
	if !wholeOK {
		bad = len(res.outputs)
	}
	c.attempted += len(res.outputs) + missing
	c.failed += bad + missing
}

// extra records operations run outside the timed passes (worker-count and
// shard-count invariance re-runs) whose outcome the caller decided.
func (c *checker) extra(id string, ok bool, detail string) {
	c.attempted++
	if !ok {
		c.failed++
		c.logf("%s: %s", id, detail)
	}
}

func sameCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// digestFile is digests.json: workload -> input seed -> output id -> digest.
type digestFile map[string]map[string]map[string]string

func seedKey(seed int64) string { return strconv.FormatInt(seed, 10) }

func loadDigests(path string) (digestFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading digests: %w", err)
	}
	var f digestFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return f, nil
}

// recordDigests runs one pass of every workload at every input seed it can
// be given and writes the outputs' digests. It refuses to record a pass with
// a failed operation.
func recordDigests(path, planDir string, workers int, log io.Writer) error {
	f := digestFile{}
	for _, name := range workloadNames {
		f[name] = map[string]map[string]string{}
		for _, seed := range recordedSeeds(name) {
			b, err := newBench(config{workload: name, seed: seed, workers: workers, planDir: planDir})
			if err != nil {
				return err
			}
			if err := b.setup(newTracer(), nil); err != nil {
				return fmt.Errorf("%s seed %d: setup: %w", name, seed, err)
			}
			b.prepare()
			res := b.pass(newTracer(), nil)
			for _, o := range res.outputs {
				if o.err != nil || o.failed {
					return fmt.Errorf("%s seed %d: %s failed (%v); not recording", name, seed, o.id, o.err)
				}
			}
			f[name][digestKey(name, seed)] = digestsOf(res)
			fmt.Fprintf(log, "perfbench: recorded %s at input seed %d (%d outputs)\n", name, seed, len(res.outputs))
		}
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
