package analysis

import (
	"fmt"
	"testing"
	"time"

	"cdnconsistency/internal/trace"
)

// churnTrace builds a 3-day trace over 4 servers where the inconsistency
// ranking flips every day (no tree) — each day a different server is the
// stale one.
func churnTrace() *trace.Trace {
	tr := &trace.Trace{
		Meta: trace.Meta{Description: "churn", Days: 3,
			PollInterval: 10 * time.Second, DayLength: 120 * time.Second,
			ServerTTL: 60 * time.Second},
	}
	for i := 0; i < 4; i++ {
		tr.Servers = append(tr.Servers, trace.ServerInfo{ID: fmt.Sprintf("s%d", i), ISP: i % 2, City: i % 2})
	}
	for day := 0; day < 3; day++ {
		staleServer := fmt.Sprintf("s%d", day%4)
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("s%d", i)
			for _, sec := range []int{10, 20, 30, 40, 50, 60} {
				snap := sec / 10 // fresh servers advance each poll
				if id == staleServer && sec > 10 {
					snap = 1 // the stale server is stuck on snapshot 1
				}
				tr.Records = append(tr.Records, trace.PollRecord{
					Day: day, Server: id, Poller: "p-" + id,
					At: time.Duration(sec) * time.Second, Snapshot: snap,
				})
			}
		}
	}
	return tr
}

// layeredTrace builds a 3-day trace where s0 is always fresh and s3 always
// most stale — the signature of a static tree.
func layeredTrace() *trace.Trace {
	tr := &trace.Trace{
		Meta: trace.Meta{Description: "layered", Days: 3,
			PollInterval: 10 * time.Second, DayLength: 120 * time.Second,
			ServerTTL: 60 * time.Second},
	}
	for i := 0; i < 4; i++ {
		tr.Servers = append(tr.Servers, trace.ServerInfo{ID: fmt.Sprintf("s%d", i), ISP: 0, City: 0})
	}
	for day := 0; day < 3; day++ {
		for i := 0; i < 4; i++ {
			id := fmt.Sprintf("s%d", i)
			for _, sec := range []int{10, 20, 30, 40, 50, 60} {
				// Server i lags i snapshots behind.
				snap := sec/10 - i
				if snap < 1 {
					snap = 1
				}
				tr.Records = append(tr.Records, trace.PollRecord{
					Day: day, Server: id, Poller: "p-" + id,
					At: time.Duration(sec) * time.Second, Snapshot: snap,
				})
			}
		}
	}
	return tr
}

func clustersOf(tr *trace.Trace) map[string][]string {
	out := map[string][]string{}
	for _, s := range tr.Servers {
		key := fmt.Sprintf("city-%d", s.City)
		out[key] = append(out[key], s.ID)
	}
	return out
}

func TestClusterDailyInconsistency(t *testing.T) {
	d := mustDataset(t, churnTrace())
	daily, err := d.ClusterDailyInconsistency(clustersOf(d.Trace))
	if err != nil {
		t.Fatal(err)
	}
	if len(daily) != 2 {
		t.Fatalf("clusters = %d, want 2", len(daily))
	}
	for _, cd := range daily {
		if len(cd.ByDay) != 3 {
			t.Fatalf("cluster %s days = %d", cd.Key, len(cd.ByDay))
		}
		if cd.Min > cd.Max {
			t.Errorf("cluster %s min %v > max %v", cd.Key, cd.Min, cd.Max)
		}
	}
	if _, err := d.ClusterDailyInconsistency(nil); err == nil {
		t.Error("empty clusters accepted")
	}
}

func TestServerRankStabilityChurn(t *testing.T) {
	d := mustDataset(t, churnTrace())
	ids := []string{"s0", "s1", "s2", "s3"}
	rs, err := d.ServerRankStability(ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Ranks) != 3 {
		t.Fatalf("rank days = %d", len(rs.Ranks))
	}
	if rs.MeanSpread <= 0.1 {
		t.Errorf("churny trace spread = %v, want large", rs.MeanSpread)
	}
}

func TestServerRankStabilityLayered(t *testing.T) {
	d := mustDataset(t, layeredTrace())
	rs, err := d.ServerRankStability([]string{"s0", "s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanSpread != 0 {
		t.Errorf("layered trace spread = %v, want 0", rs.MeanSpread)
	}
	if _, err := d.ServerRankStability([]string{"s0"}); err == nil {
		t.Error("single server accepted")
	}
}

func TestMaxInconsistencyTest(t *testing.T) {
	d := mustDataset(t, churnTrace())
	res, err := d.MaxInconsistencyTest(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maxima) != 4 {
		t.Fatalf("maxima = %v, want 4 servers", res.Maxima)
	}
	// The stale server reaches 40s (<60): all under TTL.
	if res.FracUnderTTL != 1 {
		t.Errorf("FracUnderTTL = %v, want 1", res.FracUnderTTL)
	}
	cdf, err := res.MaximaCDF()
	if err != nil {
		t.Fatal(err)
	}
	if cdf.N() != 4 {
		t.Errorf("cdf N = %d", cdf.N())
	}
	if _, err := d.MaxInconsistencyTest(9, time.Minute); err == nil {
		t.Error("bad day accepted")
	}
}

func TestMaxInconsistencyExcludesAbsentServers(t *testing.T) {
	tr := churnTrace()
	tr.Records = append(tr.Records, trace.PollRecord{
		Day: 0, Server: "s0", Poller: "p-s0", At: 70 * time.Second, Absent: true,
	})
	d := mustDataset(t, tr)
	res, err := d.MaxInconsistencyTest(0, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Maxima) != 3 {
		t.Errorf("maxima = %d, want 3 (s0 excluded)", len(res.Maxima))
	}
}

func TestMaxInconsistencyTTLFallback(t *testing.T) {
	d := mustDataset(t, churnTrace())
	if _, err := d.MaxInconsistencyTest(0, 0); err != nil {
		t.Errorf("meta TTL fallback failed: %v", err)
	}
	tr := churnTrace()
	tr.Meta.ServerTTL = 0
	d2 := mustDataset(t, tr)
	if _, err := d2.MaxInconsistencyTest(0, 0); err == nil {
		t.Error("unknown TTL accepted")
	}
}

func TestTreeExistenceVerdicts(t *testing.T) {
	churn := mustDataset(t, churnTrace())
	v, err := churn.TreeExistence(clustersOf(churn.Trace), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if v.StaticTreeLikely {
		t.Error("churny trace classified as static tree")
	}
	if v.DynamicTreeLikely {
		t.Error("churny trace classified as dynamic tree (maxima under TTL)")
	}

	layered := mustDataset(t, layeredTrace())
	lv, err := layered.TreeExistence(clustersOf(layered.Trace), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if lv.ServerRankSpread != 0 {
		t.Errorf("layered spread = %v, want 0", lv.ServerRankSpread)
	}
	if !lv.StaticTreeLikely {
		t.Error("layered trace not classified as static tree")
	}
}

func TestClusterRankSpreadStable(t *testing.T) {
	daily := []ClusterDaily{
		{Key: "a", ByDay: []float64{1, 1, 1}},
		{Key: "b", ByDay: []float64{2, 2, 2}},
		{Key: "c", ByDay: []float64{3, 3, 3}},
	}
	if got := clusterRankSpread(daily); got != 0 {
		t.Errorf("stable spread = %v, want 0", got)
	}
	flipped := []ClusterDaily{
		{Key: "a", ByDay: []float64{1, 3}},
		{Key: "b", ByDay: []float64{2, 2}},
		{Key: "c", ByDay: []float64{3, 1}},
	}
	if got := clusterRankSpread(flipped); got <= 0 {
		t.Errorf("flipped spread = %v, want > 0", got)
	}
	if got := clusterRankSpread(nil); got != 0 {
		t.Errorf("empty spread = %v", got)
	}
}

func TestKendallTauInRankStability(t *testing.T) {
	layered := mustDataset(t, layeredTrace())
	rs, err := layered.ServerRankStability([]string{"s0", "s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanKendallTau != 1 {
		t.Errorf("layered tau = %v, want 1", rs.MeanKendallTau)
	}
	churn := mustDataset(t, churnTrace())
	rs, err = churn.ServerRankStability([]string{"s0", "s1", "s2", "s3"})
	if err != nil {
		t.Fatal(err)
	}
	if rs.MeanKendallTau > 0.6 {
		t.Errorf("churny tau = %v, want low", rs.MeanKendallTau)
	}
}

// lagTrace builds a trace where server i lags lags[day][i] snapshots behind
// the freshest on each day, polled every 10 s for a minute.
func lagTrace(lags [][]int) *trace.Trace {
	tr := &trace.Trace{
		Meta: trace.Meta{Description: "lag", Days: len(lags),
			PollInterval: 10 * time.Second, DayLength: 120 * time.Second,
			ServerTTL: 60 * time.Second},
	}
	for i := range lags[0] {
		tr.Servers = append(tr.Servers, trace.ServerInfo{ID: fmt.Sprintf("s%d", i)})
	}
	for day, dayLags := range lags {
		for i, lag := range dayLags {
			id := fmt.Sprintf("s%d", i)
			for _, sec := range []int{10, 20, 30, 40, 50, 60} {
				snap := sec/10 - lag
				if snap < 1 {
					snap = 1
				}
				tr.Records = append(tr.Records, trace.PollRecord{
					Day: day, Server: id, Poller: "p-" + id,
					At: time.Duration(sec) * time.Second, Snapshot: snap,
				})
			}
		}
	}
	return tr
}

// TestTreeExistenceLargestClusterTie pins the tie-break between two
// equal-size clusters whose server rank spreads differ: the smallest key
// wins on every call, whatever the map iteration order.
func TestTreeExistenceLargestClusterTie(t *testing.T) {
	// Cluster "a" (s0, s1) swaps order every day; cluster "b" (s2, s3)
	// keeps s2 ahead of s3.
	d := mustDataset(t, lagTrace([][]int{{0, 2, 0, 2}, {2, 0, 0, 2}, {0, 2, 0, 2}}))
	clusters := map[string][]string{"b": {"s2", "s3"}, "a": {"s0", "s1"}}
	if got := LargestCluster(clusters); fmt.Sprint(got) != "[s0 s1]" {
		t.Fatalf("LargestCluster = %v, want [s0 s1]", got)
	}
	spreadOf := func(ids []string) float64 {
		rs, err := d.ServerRankStability(ids)
		if err != nil {
			t.Fatal(err)
		}
		return rs.MeanSpread
	}
	want := spreadOf(clusters["a"])
	if want == spreadOf(clusters["b"]) {
		t.Fatalf("clusters share spread %v; the test cannot tell them apart", want)
	}
	for i := 0; i < 50; i++ {
		v, err := d.TreeExistence(clusters, 60*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if v.ServerRankSpread != want {
			t.Fatalf("call %d: server rank spread %v, want %v (cluster a)", i, v.ServerRankSpread, want)
		}
	}
}
