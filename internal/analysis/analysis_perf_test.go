package analysis

import (
	"testing"

	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
)

// benchTrace generates the crawl the analysis micro-benchmarks share: the
// figures' small trace scale (120 servers, 2 days, 40 users).
func benchTrace(b *testing.B) *trace.Trace {
	b.Helper()
	gen, err := tracegen.Generate(tracegen.Config{
		Topology: topology.Config{Servers: 120, Seed: 42},
		Days:     2,
		Users:    40,
		Seed:     42,
	})
	if err != nil {
		b.Fatal(err)
	}
	return gen.Trace
}

// BenchmarkNewDataset measures indexing one crawl. NewDataset sorts the
// records in place, so every iteration restores the generated order first,
// outside the timer. The CI bench gate tracks it.
func BenchmarkNewDataset(b *testing.B) {
	tr := benchTrace(b)
	generated := append([]trace.PollRecord(nil), tr.Records...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		copy(tr.Records, generated)
		b.StartTimer()
		if _, err := NewDataset(tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScopedInconsistencies measures the Figure 9 queries: for every
// ISP, day 0's inconsistency with alpha scoped to the ISP itself and to all
// other ISPs. The CI bench gate tracks it.
func BenchmarkScopedInconsistencies(b *testing.B) {
	d, err := NewDataset(benchTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	byISP := make(map[int]map[string]bool)
	others := make(map[int]map[string]bool)
	for _, s := range d.Trace.Servers {
		if byISP[s.ISP] == nil {
			byISP[s.ISP] = make(map[string]bool)
			others[s.ISP] = make(map[string]bool)
		}
		byISP[s.ISP][s.ID] = true
	}
	for isp := range byISP {
		for _, s := range d.Trace.Servers {
			if s.ISP != isp {
				others[isp][s.ID] = true
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for isp, members := range byISP {
			if _, err := d.ScopedInconsistencies(0, members, members); err != nil {
				b.Fatal(err)
			}
			if _, err := d.ScopedInconsistencies(0, members, others[isp]); err != nil {
				b.Fatal(err)
			}
		}
	}
}
