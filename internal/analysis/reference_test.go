package analysis

import (
	"fmt"
	"sort"
	"time"

	"cdnconsistency/internal/trace"
)

// The scan-based reference implementations of the indexed analyses. Each
// re-derives its answer from the day's raw server records with map lookups,
// the way the analyses worked before Dataset indexed the crawl; the
// equivalence tests require the indexed versions to match them bit for bit.

// refComputeAlphas maps each snapshot to its first appearance time in
// records.
func refComputeAlphas(records []trace.PollRecord) map[int]time.Duration {
	alphas := make(map[int]time.Duration)
	for _, r := range records {
		if r.Snapshot <= 0 {
			continue
		}
		if cur, ok := alphas[r.Snapshot]; !ok || r.At < cur {
			alphas[r.Snapshot] = r.At
		}
	}
	return alphas
}

// refAlphas is the day's global alpha table and its ascending snapshot
// order, recomputed from the raw records.
func refAlphas(d *Dataset, day int) (map[int]time.Duration, []int) {
	alphas := refComputeAlphas(d.ServerRecords(day))
	return alphas, sortedSnapshots(alphas)
}

// nextObserved returns the smallest observed snapshot id greater than s,
// or 0 if none.
func nextObserved(order []int, s int) int {
	i := sort.SearchInts(order, s+1)
	if i == len(order) {
		return 0
	}
	return order[i]
}

// refStaleness is the instantaneous per-record staleness: t - alpha(C_next)
// when a newer snapshot had already appeared, else 0. The boolean reports
// whether the record carried content at all.
func refStaleness(r trace.PollRecord, alphas map[int]time.Duration, order []int) (float64, bool) {
	if r.Absent || r.Snapshot <= 0 {
		return 0, false
	}
	next := nextObserved(order, r.Snapshot)
	if next == 0 {
		return 0, true
	}
	alphaNext := alphas[next]
	if r.At <= alphaNext {
		return 0, true
	}
	return (r.At - alphaNext).Seconds(), true
}

// refEpisodeLengths is the episode measure over one observer's
// time-ordered records.
func refEpisodeLengths(records []trace.PollRecord, alphas map[int]time.Duration, order []int) RequestInconsistency {
	var out RequestInconsistency
	ri := 0
	for _, snap := range order {
		alpha := alphas[snap]
		for ri < len(records) && (records[ri].Absent || records[ri].Snapshot < snap) {
			ri++
		}
		if ri == len(records) {
			break
		}
		out.Total++
		delay := (records[ri].At - alpha).Seconds()
		if delay <= 0 {
			out.Fresh++
		} else {
			out.Lengths = append(out.Lengths, delay)
		}
	}
	return out
}

// refGroupByObserver splits records into per-observer time-ordered lists,
// keyed by server id (poller id for provider records).
func refGroupByObserver(records []trace.PollRecord) map[string][]trace.PollRecord {
	out := make(map[string][]trace.PollRecord)
	for _, r := range records {
		key := r.Server
		if r.Provider {
			key = r.Poller
		}
		out[key] = append(out[key], r)
	}
	return out
}

// refCollect runs the episode measure over every observer in records, in
// sorted observer order.
func refCollect(records []trace.PollRecord, alphas map[int]time.Duration, order []int) RequestInconsistency {
	grouped := refGroupByObserver(records)
	keys := make([]string, 0, len(grouped))
	for k := range grouped {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out RequestInconsistency
	for _, k := range keys {
		out.merge(refEpisodeLengths(grouped[k], alphas, order))
	}
	return out
}

func refRequestInconsistencies(d *Dataset, day int) RequestInconsistency {
	alphas, order := refAlphas(d, day)
	return refCollect(d.ServerRecords(day), alphas, order)
}

func refProviderInconsistencies(d *Dataset, day int) RequestInconsistency {
	alphas := refComputeAlphas(d.ProviderRecords(day))
	return refCollect(d.ProviderRecords(day), alphas, sortedSnapshots(alphas))
}

func refScopedInconsistencies(d *Dataset, day int, servers, alphaScope map[string]bool) RequestInconsistency {
	var scopeRecs, memberRecs []trace.PollRecord
	for _, r := range d.ServerRecords(day) {
		if alphaScope[r.Server] {
			scopeRecs = append(scopeRecs, r)
		}
		if servers[r.Server] {
			memberRecs = append(memberRecs, r)
		}
	}
	alphas := refComputeAlphas(scopeRecs)
	return refCollect(memberRecs, alphas, sortedSnapshots(alphas))
}

func refPerServerInconsistency(d *Dataset, day int) map[string][]float64 {
	alphas, order := refAlphas(d, day)
	out := make(map[string][]float64, len(d.Trace.Servers))
	grouped := refGroupByObserver(d.ServerRecords(day))
	for _, s := range d.Trace.Servers {
		recs, ok := grouped[s.ID]
		if !ok {
			out[s.ID] = nil
			continue
		}
		out[s.ID] = refEpisodeLengths(recs, alphas, order).Lengths
	}
	return out
}

func refConsistencyRatio(d *Dataset) map[string]float64 {
	fresh := make(map[string]int)
	total := make(map[string]int)
	for day := 0; day < d.Days(); day++ {
		alphas, order := refAlphas(d, day)
		for _, r := range d.ServerRecords(day) {
			l, ok := refStaleness(r, alphas, order)
			if !ok {
				continue
			}
			total[r.Server]++
			if l == 0 {
				fresh[r.Server]++
			}
		}
	}
	out := make(map[string]float64, len(d.Trace.Servers))
	for _, s := range d.Trace.Servers {
		if total[s.ID] == 0 {
			out[s.ID] = 1
			continue
		}
		out[s.ID] = float64(fresh[s.ID]) / float64(total[s.ID])
	}
	return out
}

func refClusterDailyInconsistency(d *Dataset, clusters map[string][]string) []ClusterDaily {
	keys := make([]string, 0, len(clusters))
	for k := range clusters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]ClusterDaily, 0, len(keys))
	for _, k := range keys {
		members := make(map[string]bool, len(clusters[k]))
		for _, id := range clusters[k] {
			members[id] = true
		}
		cd := ClusterDaily{Key: k}
		for day := 0; day < d.Days(); day++ {
			alphas, order := refAlphas(d, day)
			var sum float64
			var n int
			for _, r := range d.ServerRecords(day) {
				if !members[r.Server] {
					continue
				}
				l, ok := refStaleness(r, alphas, order)
				if !ok {
					continue
				}
				sum += l
				n++
			}
			avg := 0.0
			if n > 0 {
				avg = sum / float64(n)
			}
			cd.ByDay = append(cd.ByDay, avg)
			if day == 0 || avg < cd.Min {
				cd.Min = avg
			}
			if day == 0 || avg > cd.Max {
				cd.Max = avg
			}
		}
		out = append(out, cd)
	}
	return out
}

func refServerRankStability(d *Dataset, serverIDs []string) RankStability {
	ids := append([]string(nil), serverIDs...)
	sort.Strings(ids)
	idx := make(map[string]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	var sums [][]float64
	var counts [][]int
	for day := 0; day < d.Days(); day++ {
		alphas, order := refAlphas(d, day)
		s := make([]float64, len(ids))
		c := make([]int, len(ids))
		for _, r := range d.ServerRecords(day) {
			i, ok := idx[r.Server]
			if !ok {
				continue
			}
			l, lok := refStaleness(r, alphas, order)
			if !lok {
				continue
			}
			s[i] += l
			c[i]++
		}
		sums = append(sums, s)
		counts = append(counts, c)
	}
	return rankStability(ids, sums, counts)
}

func refAbsences(d *Dataset, day int) []Absence {
	interval := d.Trace.Meta.PollInterval
	alphas, order := refAlphas(d, day)
	byServer := make(map[string][]trace.PollRecord)
	for _, r := range d.ServerRecords(day) {
		if r.Absent {
			continue
		}
		byServer[r.Server] = append(byServer[r.Server], r)
	}
	servers := make([]string, 0, len(byServer))
	for s := range byServer {
		servers = append(servers, s)
	}
	sort.Strings(servers)
	var out []Absence
	for _, s := range servers {
		recs := byServer[s]
		for i := 1; i < len(recs); i++ {
			gap := recs[i].At - recs[i-1].At
			if gap <= interval+interval/2 {
				continue
			}
			a := Absence{Server: s, Day: day, Start: recs[i-1].At, End: recs[i].At, Length: gap - interval}
			if l, ok := refStaleness(recs[i], alphas, order); ok {
				a.ReturnI = l
			} else {
				a.ReturnI = -1
			}
			out = append(out, a)
		}
	}
	return out
}

func refMaxInconsistencyTest(d *Dataset, day int, ttl time.Duration) MaxInconsistencyResult {
	absent := make(map[string]bool)
	for _, r := range d.Trace.Records {
		if r.Day == day && r.Absent && !r.Provider && !r.UserView {
			absent[r.Server] = true
		}
	}
	per := refPerServerInconsistency(d, day)
	responded := make(map[string]bool)
	for _, r := range d.ServerRecords(day) {
		if !r.Absent && r.Snapshot > 0 {
			responded[r.Server] = true
		}
	}
	servers := make([]string, 0, len(per))
	for s := range per {
		if !absent[s] && responded[s] {
			servers = append(servers, s)
		}
	}
	sort.Strings(servers)
	var res MaxInconsistencyResult
	var under, under2 int
	for _, s := range servers {
		var m float64
		for _, l := range per[s] {
			if l > m {
				m = l
			}
		}
		res.Maxima = append(res.Maxima, m)
		if m < ttl.Seconds() {
			under++
		}
		if m < 2*ttl.Seconds() {
			under2++
		}
	}
	if len(res.Maxima) > 0 {
		res.FracUnderTTL = float64(under) / float64(len(res.Maxima))
		res.FracUnder2TTL = float64(under2) / float64(len(res.Maxima))
	}
	return res
}

// alphaOf reads the day's global alpha table for snapshot snap; it panics
// if the snapshot was never observed.
func (d *Dataset) alphaOf(day, snap int) time.Duration {
	x := d.servers[day]
	k := sort.SearchInts(x.snaps, snap)
	if k == len(x.snaps) || x.snaps[k] != snap {
		panic(fmt.Sprintf("snapshot %d not observed on day %d", snap, day))
	}
	return x.alpha[k]
}
