package analysis

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/tracegen"
)

// equivDataset is a small synthetic crawl in which the first two servers
// (by id) have no records at all on the last day.
func equivDataset(t *testing.T, seed int64) *Dataset {
	t.Helper()
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 40, Seed: seed},
		Days:     2,
		Users:    10,
		Seed:     seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Trace
	ids := make([]string, 0, len(tr.Servers))
	for _, s := range tr.Servers {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	silent := map[string]bool{ids[0]: true, ids[1]: true}
	kept := tr.Records[:0]
	for _, r := range tr.Records {
		if r.Day == tr.Meta.Days-1 && !r.Provider && !r.UserView && silent[r.Server] {
			continue
		}
		kept = append(kept, r)
	}
	tr.Records = kept
	return mustDataset(t, tr)
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInconsistency(a, b RequestInconsistency) bool {
	return a.Fresh == b.Fresh && a.Total == b.Total && sameFloats(a.Lengths, b.Lengths)
}

// set turns ids into the map form ScopedInconsistencies takes.
func set(ids ...string) map[string]bool {
	out := make(map[string]bool, len(ids))
	for _, id := range ids {
		out[id] = true
	}
	return out
}

// TestIndexMatchesReference compares every indexed analysis with its
// scan-based reference bit for bit, over several crawls and the edge cases
// of the scoped and clustered queries.
func TestIndexMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		d := equivDataset(t, seed)
		var ids []string
		byISP := map[int][]string{}
		for _, s := range d.Trace.Servers {
			ids = append(ids, s.ID)
			byISP[s.ISP] = append(byISP[s.ISP], s.ID)
		}
		sort.Strings(ids)
		half := len(ids) / 2
		// Guard the edge cases the comparison relies on: the silent
		// servers have records on day 0 only, and the crawl has absences.
		last := d.Days() - 1
		for o := 0; o < 2; o++ {
			if len(d.servers[0].byObs[o]) == 0 || len(d.servers[last].byObs[o]) != 0 {
				t.Fatalf("seed %d: server %s is not silent on day %d only", seed, ids[o], last)
			}
		}
		if abs, _ := d.Absences(0); len(abs) == 0 {
			t.Fatalf("seed %d: no absences on day 0; the absence comparison is vacuous", seed)
		}

		scopes := []struct {
			name            string
			servers, alphas map[string]bool
		}{
			{"all", set(ids...), set(ids...)},
			{"scope differs from members", set(ids[:half]...), set(ids[half/2:]...)},
			{"disjoint scope", set(ids[:half]...), set(ids[half:]...)},
			{"unknown ids", set(ids[0], "no-such-server"), set("no-such-server", ids[3], ids[5])},
			{"empty members", set(), set(ids...)},
			{"empty scope", set(ids...), set()},
			{"false entries", map[string]bool{ids[2]: true, ids[3]: false}, map[string]bool{ids[2]: false, ids[4]: true}},
			{"silent servers", set(ids[0], ids[1], ids[2]), set(ids[0], ids[1])},
		}
		for isp, members := range byISP {
			scopes = append(scopes, struct {
				name            string
				servers, alphas map[string]bool
			}{fmt.Sprintf("isp %d intra", isp), set(members...), set(members...)})
		}

		clusters := map[string][]string{
			"empty":       nil,
			"unknown":     {"no-such-server"},
			"overlap-a":   ids[:half+3],
			"overlap-b":   ids[half-3:],
			"silent":      {ids[0], ids[1]},
			"repeated":    {ids[4], ids[4], ids[7]},
			"all-servers": ids,
		}

		for day := 0; day < d.Days(); day++ {
			got, _ := d.RequestInconsistencies(day)
			if want := refRequestInconsistencies(d, day); !sameInconsistency(got, want) {
				t.Errorf("seed %d day %d: RequestInconsistencies differs from reference", seed, day)
			}
			got, _ = d.ProviderInconsistencies(day)
			if want := refProviderInconsistencies(d, day); !sameInconsistency(got, want) {
				t.Errorf("seed %d day %d: ProviderInconsistencies differs from reference", seed, day)
			}
			for _, sc := range scopes {
				got, _ := d.ScopedInconsistencies(day, sc.servers, sc.alphas)
				if want := refScopedInconsistencies(d, day, sc.servers, sc.alphas); !sameInconsistency(got, want) {
					t.Errorf("seed %d day %d scope %q: ScopedInconsistencies differs from reference", seed, day, sc.name)
				}
			}
			per, _ := d.PerServerInconsistency(day)
			wantPer := refPerServerInconsistency(d, day)
			if len(per) != len(wantPer) {
				t.Errorf("seed %d day %d: PerServerInconsistency has %d servers, want %d", seed, day, len(per), len(wantPer))
			}
			for id, want := range wantPer {
				if got, ok := per[id]; !ok || !sameFloats(got, want) {
					t.Errorf("seed %d day %d: PerServerInconsistency[%s] differs from reference", seed, day, id)
				}
			}
			abs, _ := d.Absences(day)
			wantAbs := refAbsences(d, day)
			if len(abs) != len(wantAbs) {
				t.Errorf("seed %d day %d: %d absences, want %d", seed, day, len(abs), len(wantAbs))
			} else {
				for i := range abs {
					a, w := abs[i], wantAbs[i]
					if a.Server != w.Server || a.Day != w.Day || a.Start != w.Start || a.End != w.End ||
						a.Length != w.Length || math.Float64bits(a.ReturnI) != math.Float64bits(w.ReturnI) {
						t.Errorf("seed %d day %d: absence %d = %+v, want %+v", seed, day, i, a, w)
					}
				}
			}
			res, _ := d.MaxInconsistencyTest(day, d.Trace.Meta.ServerTTL)
			want := refMaxInconsistencyTest(d, day, d.Trace.Meta.ServerTTL)
			if !sameFloats(res.Maxima, want.Maxima) || res.FracUnderTTL != want.FracUnderTTL || res.FracUnder2TTL != want.FracUnder2TTL {
				t.Errorf("seed %d day %d: MaxInconsistencyTest differs from reference", seed, day)
			}
		}

		ratios := d.ConsistencyRatio()
		for id, want := range refConsistencyRatio(d) {
			if math.Float64bits(ratios[id]) != math.Float64bits(want) {
				t.Errorf("seed %d: ConsistencyRatio[%s] = %v, want %v", seed, id, ratios[id], want)
			}
		}

		daily, _ := d.ClusterDailyInconsistency(clusters)
		wantDaily := refClusterDailyInconsistency(d, clusters)
		if len(daily) != len(wantDaily) {
			t.Fatalf("seed %d: %d clusters, want %d", seed, len(daily), len(wantDaily))
		}
		for i := range daily {
			g, w := daily[i], wantDaily[i]
			if g.Key != w.Key || !sameFloats(g.ByDay, w.ByDay) ||
				math.Float64bits(g.Min) != math.Float64bits(w.Min) || math.Float64bits(g.Max) != math.Float64bits(w.Max) {
				t.Errorf("seed %d: cluster %s = %+v, want %+v", seed, g.Key, g, w)
			}
		}

		for name, members := range clusters {
			if len(members) < 2 {
				continue
			}
			rs, _ := d.ServerRankStability(members)
			want := refServerRankStability(d, members)
			if fmt.Sprint(rs.Ranks) != fmt.Sprint(want.Ranks) || fmt.Sprint(rs.Entities) != fmt.Sprint(want.Entities) ||
				math.Float64bits(rs.MeanSpread) != math.Float64bits(want.MeanSpread) ||
				math.Float64bits(rs.MeanKendallTau) != math.Float64bits(want.MeanKendallTau) {
				t.Errorf("seed %d: ServerRankStability(%s) = %+v, want %+v", seed, name, rs, want)
			}
		}
	}
}
