// Package analysis implements the paper's Section-3 measurement analytics
// as pure functions of a crawl trace: inconsistency lengths via the
// alpha/beta method, user-observed consistency, cause breakdowns (TTL,
// provider, ISP, distance, absences), TTL inference by recursive refinement,
// and the multicast-tree existence tests.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"time"

	"cdnconsistency/internal/trace"
)

// Dataset wraps a trace with the index the analyses share. Build one with
// NewDataset and reuse it across analyses; it is read-only afterwards, so
// the figure generators may read one concurrently.
//
// NewDataset sorts the records and indexes each day once. Content-server
// records are indexed by server id, over every server in Trace.Servers;
// provider records by poller id, since several vantage points watch the
// same origin. Each id gets a dense position in sorted-id order, and per day
// the index holds every record's observer, every observer's records in time
// order, each observer's first appearance of every snapshot, every record's
// instantaneous staleness and every observer's episode lengths against the
// day's alpha table. Analyses answer server-record queries from these
// tables instead of re-scanning the day.
//
// Bit-identity rule: an indexed analysis subtracts the same integer
// durations and accumulates floats in the same order a scan of the day's
// records would (records in time order, observers in sorted-id order), so
// every result is bit-identical to the scan.
type Dataset struct {
	Trace *trace.Trace

	// Per day, the positions in Trace.Records of each kind's records, in
	// time order.
	serverRecs   [][]int32
	providerRecs [][]int32
	userRecs     [][]int32

	// serverIDs lists Trace.Servers' ids sorted; serverPos maps an id to
	// its position there, the dense server index of servers[day].
	serverIDs []string
	serverPos map[string]int32
	// servers[day] indexes serverRecs[day] by server and providers[day]
	// indexes providerRecs[day] by poller.
	servers   []*dayIndex
	providers []*dayIndex
}

// NewDataset indexes a trace. The trace must pass Validate; NewDataset
// sorts its records in place, and they must not change afterwards.
func NewDataset(tr *trace.Trace) (*Dataset, error) {
	if err := tr.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	if len(tr.Records) > math.MaxInt32 {
		return nil, fmt.Errorf("analysis: %d records exceed the index's int32 positions", len(tr.Records))
	}
	tr.SortRecords()
	days := tr.Meta.Days
	d := &Dataset{
		Trace:        tr,
		serverRecs:   make([][]int32, days),
		providerRecs: make([][]int32, days),
		userRecs:     make([][]int32, days),
		serverIDs:    make([]string, 0, len(tr.Servers)),
		serverPos:    make(map[string]int32, len(tr.Servers)),
		servers:      make([]*dayIndex, days),
		providers:    make([]*dayIndex, days),
	}
	for i := range tr.Records {
		r := &tr.Records[i]
		switch {
		case r.Provider:
			d.providerRecs[r.Day] = append(d.providerRecs[r.Day], int32(i))
		case r.UserView:
			d.userRecs[r.Day] = append(d.userRecs[r.Day], int32(i))
		default:
			d.serverRecs[r.Day] = append(d.serverRecs[r.Day], int32(i))
		}
	}
	for _, s := range tr.Servers {
		d.serverIDs = append(d.serverIDs, s.ID)
	}
	sort.Strings(d.serverIDs)
	for i, id := range d.serverIDs {
		d.serverPos[id] = int32(i)
	}
	for day := 0; day < days; day++ {
		d.servers[day] = newDayIndex(tr.Records, d.serverRecs[day], len(d.serverIDs), func(r *trace.PollRecord) int32 {
			return d.serverPos[r.Server]
		})
		pollers := make(map[string]int32)
		for _, i := range d.providerRecs[day] {
			pollers[tr.Records[i].Poller] = 0
		}
		ids := make([]string, 0, len(pollers))
		for id := range pollers {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for i, id := range ids {
			pollers[id] = int32(i)
		}
		d.providers[day] = newDayIndex(tr.Records, d.providerRecs[day], len(ids), func(r *trace.PollRecord) int32 {
			return pollers[r.Poller]
		})
	}
	return d, nil
}

// Days returns the number of crawl days.
func (d *Dataset) Days() int { return d.Trace.Meta.Days }

// ServerRecords returns a copy of one day's content-server poll records
// (sorted).
func (d *Dataset) ServerRecords(day int) []trace.PollRecord { return d.records(d.serverRecs[day]) }

// ProviderRecords returns a copy of one day's provider poll records
// (sorted).
func (d *Dataset) ProviderRecords(day int) []trace.PollRecord { return d.records(d.providerRecs[day]) }

// UserRecords returns a copy of one day's user-view poll records (sorted).
func (d *Dataset) UserRecords(day int) []trace.PollRecord { return d.records(d.userRecs[day]) }

func (d *Dataset) records(positions []int32) []trace.PollRecord {
	out := make([]trace.PollRecord, len(positions))
	for j, i := range positions {
		out[j] = d.Trace.Records[i]
	}
	return out
}

// serverSet marks the servers whose ids map to true, by dense index.
// Unknown ids are ignored: they have no records.
func (d *Dataset) serverSet(ids map[string]bool) []bool {
	out := make([]bool, len(d.serverIDs))
	for id, in := range ids {
		if o, ok := d.serverPos[id]; ok && in {
			out[o] = true
		}
	}
	return out
}

func sortedSnapshots(alphas map[int]time.Duration) []int {
	out := make([]int, 0, len(alphas))
	for s := range alphas {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// dayIndex indexes one day's records of one kind by observer. A record is
// a position in src, observers are dense positions in sorted-id order, and
// snapshots are positions in snaps.
type dayIndex struct {
	recs []trace.PollRecord // the whole trace
	src  []int32            // record -> its position in recs

	observer []int32   // record -> observer
	byObs    [][]int32 // observer -> its records, in time order

	// snaps lists the snapshot ids observed that day, ascending; alpha[k]
	// is the first time snaps[k] was observed — the paper's alpha_Ci
	// (Section 3.1: with thousands of polled servers, the first
	// observation approximates the provider's update time).
	snaps []int
	alpha []time.Duration
	// rank[i] is the position in snaps of record i's snapshot, or -1 when
	// the record carries no content (absent, or snapshot 0).
	rank []int32
	// firsts[o] lists each snapshot observer o showed, with the first time
	// it showed it, in time order.
	firsts [][]firstSeen
	// stale[i] is record i's instantaneous staleness: for a record showing
	// Ci at time t, t - alpha(C_next) when a newer snapshot had already
	// appeared, else 0. This per-poll view drives the instantaneous
	// measures (Figure 4(b), Figure 11, absence proximity); the headline
	// inconsistency lengths use the episode measure.
	stale []float64
	// episodes[o] is observer o's episode measure against alpha.
	episodes []RequestInconsistency
}

type firstSeen struct {
	rank int32
	at   time.Duration
}

// newDayIndex indexes the records at positions src of recs (in time
// order) over observers [0, observers); observerOf maps a record to its
// observer.
func newDayIndex(recs []trace.PollRecord, src []int32, observers int, observerOf func(*trace.PollRecord) int32) *dayIndex {
	x := &dayIndex{
		recs:     recs,
		src:      src,
		observer: make([]int32, len(src)),
		byObs:    make([][]int32, observers),
		rank:     make([]int32, len(src)),
		firsts:   make([][]firstSeen, observers),
		stale:    make([]float64, len(src)),
		episodes: make([]RequestInconsistency, observers),
	}
	// Absent records carry no snapshot, so the Snapshot > 0 check skips
	// them.
	alphas := make(map[int]time.Duration)
	for _, i := range src {
		r := &recs[i]
		if r.Snapshot <= 0 {
			continue
		}
		if cur, ok := alphas[r.Snapshot]; !ok || r.At < cur {
			alphas[r.Snapshot] = r.At
		}
	}
	x.snaps = sortedSnapshots(alphas)
	x.alpha = make([]time.Duration, len(x.snaps))
	for k, s := range x.snaps {
		x.alpha[k] = alphas[s]
	}
	counts := make([]int, observers)
	for i := range src {
		r := x.rec(int32(i))
		o := observerOf(r)
		x.observer[i] = o
		counts[o]++
		x.rank[i] = -1
		if r.Absent || r.Snapshot <= 0 {
			continue
		}
		k := sort.SearchInts(x.snaps, r.Snapshot)
		x.rank[i] = int32(k)
		if k+1 < len(x.snaps) && r.At > x.alpha[k+1] {
			x.stale[i] = (r.At - x.alpha[k+1]).Seconds()
		}
	}
	// One backing array holds every observer's record list.
	flat := make([]int32, 0, len(src))
	for o, n := range counts {
		x.byObs[o] = flat[len(flat) : len(flat) : len(flat)+n]
		flat = flat[:len(flat)+n]
	}
	for i, o := range x.observer {
		x.byObs[o] = append(x.byObs[o], int32(i))
	}
	seenBy := make([]int32, len(x.snaps))
	for k := range seenBy {
		seenBy[k] = -1
	}
	all := make([]int32, len(x.snaps))
	for k := range all {
		all[k] = int32(k)
	}
	for o, list := range x.byObs {
		for _, i := range list {
			if k := x.rank[i]; k >= 0 && seenBy[k] != int32(o) {
				seenBy[k] = int32(o)
				x.firsts[o] = append(x.firsts[o], firstSeen{rank: k, at: x.rec(i).At})
			}
		}
		x.episodes[o] = x.episodeLengths(int32(o), x.alpha, all)
	}
	return x
}

func (x *dayIndex) rec(i int32) *trace.PollRecord { return &x.recs[x.src[i]] }

// scopedAlpha is the alpha table of the observers in scope: each snapshot's
// earliest first appearance among them, -1 for snapshots none showed. It
// also returns the positions of the snapshots they showed, ascending.
func (x *dayIndex) scopedAlpha(scope []bool) ([]time.Duration, []int32) {
	alpha := make([]time.Duration, len(x.snaps))
	for k := range alpha {
		alpha[k] = -1
	}
	for o, in := range scope {
		if !in {
			continue
		}
		for _, f := range x.firsts[o] {
			if alpha[f.rank] < 0 || f.at < alpha[f.rank] {
				alpha[f.rank] = f.at
			}
		}
	}
	var order []int32
	for k, at := range alpha {
		if at >= 0 {
			order = append(order, int32(k))
		}
	}
	return alpha, order
}

// RequestInconsistency is the paper's alpha/beta inconsistency measure
// underlying Figures 3, 5, 7 and 9. For each update Ci and each server, the
// inconsistency length is the catch-up delay: the time from Ci's first
// appearance anywhere (alpha_Ci) until the server first serves a snapshot
// >= Ci — equivalently Max{beta(Ci-1, sn) - alpha_Ci} per Section 3.1. A
// server that already shows Ci when it appears contributes a fresh (zero)
// episode. Under a TTL cache these delays are uniform on [0, TTL], which is
// what the TTL-inference of Section 3.4.1 exploits.
type RequestInconsistency struct {
	// Lengths holds the positive inconsistency lengths in seconds.
	Lengths []float64
	// Fresh counts (server, update) episodes with zero delay.
	Fresh int
	// Total counts all episodes evaluated.
	Total int
}

// Mean returns the mean of the positive inconsistency lengths, or 0.
func (ri RequestInconsistency) Mean() float64 {
	if len(ri.Lengths) == 0 {
		return 0
	}
	var sum float64
	for _, l := range ri.Lengths {
		sum += l
	}
	return sum / float64(len(ri.Lengths))
}

func (ri *RequestInconsistency) merge(o RequestInconsistency) {
	ri.Lengths = append(ri.Lengths, o.Lengths...)
	ri.Fresh += o.Fresh
	ri.Total += o.Total
}

// episodeLengths computes, for observer o, the catch-up delay for every
// update in order (snapshot positions, ascending) against alpha. An update
// the observer never catches up to (end of trace) contributes nothing.
// Negative delays (possible under scoped alphas when the observer itself
// defines the global first appearance) count as fresh.
func (x *dayIndex) episodeLengths(o int32, alpha []time.Duration, order []int32) RequestInconsistency {
	var out RequestInconsistency
	recs := x.byObs[o]
	ri := 0
	for _, k := range order {
		// Advance to the first content-bearing record showing >= snaps[k].
		for ri < len(recs) && x.rank[recs[ri]] < k {
			ri++
		}
		if ri == len(recs) {
			break
		}
		out.Total++
		delay := (x.rec(recs[ri]).At - alpha[k]).Seconds()
		if delay <= 0 {
			out.Fresh++
		} else {
			out.Lengths = append(out.Lengths, delay)
		}
	}
	return out
}

// allEpisodes merges every observer's episode measure in sorted-id order.
func (x *dayIndex) allEpisodes() RequestInconsistency {
	var out RequestInconsistency
	for _, ri := range x.episodes {
		out.merge(ri)
	}
	return out
}

// RequestInconsistencies computes the Figure-3 measure for one day over all
// content servers, using the global alpha table.
func (d *Dataset) RequestInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	return d.servers[day].allEpisodes(), nil
}

// RequestInconsistenciesAll merges every day's Figure-3 measure.
func (d *Dataset) RequestInconsistenciesAll() RequestInconsistency {
	var out RequestInconsistency
	for day := 0; day < d.Days(); day++ {
		out.merge(d.servers[day].allEpisodes())
	}
	return out
}

// ProviderInconsistencies computes the Figure-7 measure: staleness of the
// provider's own answers, scored against the provider records' alpha table.
func (d *Dataset) ProviderInconsistencies(day int) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	return d.providers[day].allEpisodes(), nil
}

// ScopedInconsistencies computes request inconsistency for records of the
// given servers, with alpha computed from alphaScope servers. Passing the
// same set for both yields the paper's inner-cluster measure (Figure 5);
// passing "all other clusters" as the scope yields the inter-ISP measure
// (Figure 9(c)).
func (d *Dataset) ScopedInconsistencies(day int, servers, alphaScope map[string]bool) (RequestInconsistency, error) {
	if err := d.checkDay(day); err != nil {
		return RequestInconsistency{}, err
	}
	x := d.servers[day]
	alpha, order := x.scopedAlpha(d.serverSet(alphaScope))
	var out RequestInconsistency
	for o, in := range d.serverSet(servers) {
		if in {
			out.merge(x.episodeLengths(int32(o), alpha, order))
		}
	}
	return out, nil
}

// PerServerInconsistency aggregates one day's episode inconsistencies per
// server (global alpha scope). The map holds each server's positive episode
// lengths in seconds; servers whose episodes were all fresh, or that have
// no records that day, map to an empty slice. The slices are shared with
// the Dataset and must not be modified.
func (d *Dataset) PerServerInconsistency(day int) (map[string][]float64, error) {
	if err := d.checkDay(day); err != nil {
		return nil, err
	}
	x := d.servers[day]
	out := make(map[string][]float64, len(d.serverIDs))
	for o, id := range d.serverIDs {
		out[id] = x.episodes[o].Lengths
	}
	return out, nil
}

// ConsistencyRatio computes the paper's Section 3.4.3 metric for each
// server: the fraction of the trace the server spent consistent. The
// paper's formula 1 - sum(inconsistency lengths)/total time double-counts
// when stale windows overlap (several updates missed by one refresh), so we
// evaluate the union of stale intervals at poll granularity: the fraction
// of the server's polls that returned fresh content.
func (d *Dataset) ConsistencyRatio() map[string]float64 {
	fresh := make([]int, len(d.serverIDs))
	total := make([]int, len(d.serverIDs))
	for _, x := range d.servers {
		for i, o := range x.observer {
			if x.rank[i] < 0 {
				continue
			}
			total[o]++
			if x.stale[i] == 0 {
				fresh[o]++
			}
		}
	}
	out := make(map[string]float64, len(d.serverIDs))
	for o, id := range d.serverIDs {
		if total[o] == 0 {
			out[id] = 1
			continue
		}
		out[id] = float64(fresh[o]) / float64(total[o])
	}
	return out
}

func (d *Dataset) checkDay(day int) error {
	if day < 0 || day >= d.Days() {
		return fmt.Errorf("analysis: day %d outside [0,%d)", day, d.Days())
	}
	return nil
}
