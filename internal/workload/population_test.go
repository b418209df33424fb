package workload

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestGeneratePopulationSumsExactly(t *testing.T) {
	for _, tc := range []struct {
		servers, total int
		alpha          float64
	}{
		{servers: 10, total: 1000, alpha: 1.2},
		{servers: 850, total: 1_000_000, alpha: 1.2},
		{servers: 7, total: 3, alpha: 0},   // fewer users than servers
		{servers: 5, total: 0, alpha: 1.2}, // empty population
		{servers: 3, total: 100, alpha: 0.5},
	} {
		p, err := GeneratePopulation(PopulationConfig{
			Servers: tc.servers, TotalUsers: tc.total, Alpha: tc.alpha,
			CohortsPerServer: 4, Seed: 7,
		})
		if err != nil {
			t.Fatalf("GeneratePopulation(%+v): %v", tc, err)
		}
		if got := p.TotalUsers(); got != tc.total {
			t.Errorf("servers=%d total=%d alpha=%v: TotalUsers = %d", tc.servers, tc.total, tc.alpha, got)
		}
		if len(p.Servers) != tc.servers {
			t.Errorf("len(Servers) = %d, want %d", len(p.Servers), tc.servers)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("generated population invalid: %v", err)
		}
	}
}

func TestGeneratePopulationDeterministic(t *testing.T) {
	cfg := PopulationConfig{Servers: 20, TotalUsers: 5000, Alpha: 1.2, CohortsPerServer: 8, Seed: 42}
	a, err := GeneratePopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GeneratePopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same config produced different populations")
	}
	cfg.Seed = 43
	c, err := GeneratePopulation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical populations")
	}
}

func TestGeneratePopulationHeavyTail(t *testing.T) {
	p, err := GeneratePopulation(PopulationConfig{
		Servers: 200, TotalUsers: 100_000, Alpha: 1.1, CohortsPerServer: 4, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	max, min := 0, 1<<62
	for _, cohorts := range p.Servers {
		n := 0
		for _, c := range cohorts {
			n += c.Count
		}
		if n > max {
			max = n
		}
		if n < min {
			min = n
		}
	}
	// A Pareto(1.1) draw over 200 servers is very skewed; uniform would give
	// 500 each. Requiring a 5x max/mean ratio is far below the typical draw
	// but cleanly separates heavy-tailed from uniform.
	if mean := 100_000 / 200; max < 5*mean {
		t.Errorf("max per-server count %d not heavy-tailed (mean %d)", max, mean)
	}
	if min < 0 {
		t.Errorf("negative per-server count %d", min)
	}
}

func TestPopulationRoundTrip(t *testing.T) {
	p, err := GeneratePopulation(PopulationConfig{
		Servers: 12, TotalUsers: 600, Alpha: 1.2, CohortsPerServer: 3,
		Period: 10 * time.Second, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	q, err := ParsePopulation(data)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Error("population did not survive a marshal/parse round trip")
	}
	spec := q.Servers[0][0]
	if spec.Offset() != time.Duration(spec.OffsetNS) {
		t.Errorf("Offset() = %v, want %v", spec.Offset(), time.Duration(spec.OffsetNS))
	}
	if spec.Period() != 10*time.Second {
		t.Errorf("Period() = %v, want 10s", spec.Period())
	}
}

func TestParsePopulationRejects(t *testing.T) {
	for name, data := range map[string]string{
		"empty":          `{}`,
		"no-servers":     `{"servers": []}`,
		"zero-count":     `{"servers": [[{"count": 0}]]}`,
		"negative-count": `{"servers": [[{"count": -3}]]}`,
		"neg-offset":     `{"servers": [[{"count": 1, "offset_ns": -1}]]}`,
		"neg-period":     `{"servers": [[{"count": 1, "period_ns": -1}]]}`,
		"unknown-field":  `{"servers": [[{"count": 1, "weight": 2}]]}`,
		"trailing-data":  `{"servers": [[{"count": 1}]]} {}`,
		"trailing-brace": `{"servers": [[{"count": 1}]]}}`,
		"trailing-brkts": `{"servers": [[{"count": 1}]]} ]]]`,
		"not-json":       `servers: 3`,
	} {
		if _, err := ParsePopulation([]byte(data)); err == nil {
			t.Errorf("%s: ParsePopulation accepted %q", name, data)
		}
	}
}

func TestParsePopulationAccepts(t *testing.T) {
	p, err := ParsePopulation([]byte(
		`{"servers": [[{"count": 5, "offset_ns": 1000}], [{"count": 2, "period_ns": 10000000000}]]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalUsers() != 7 || p.NumCohorts() != 2 {
		t.Errorf("TotalUsers=%d NumCohorts=%d, want 7 and 2", p.TotalUsers(), p.NumCohorts())
	}
	if got := p.Servers[1][0].Period(); got != 10*time.Second {
		t.Errorf("Period() = %v, want 10s", got)
	}
}

func TestGeneratePopulationRejects(t *testing.T) {
	for name, cfg := range map[string]PopulationConfig{
		"no-servers":  {Servers: 0, TotalUsers: 10},
		"neg-users":   {Servers: 3, TotalUsers: -1},
		"neg-period":  {Servers: 3, TotalUsers: 10, Period: -time.Second},
		"huge-ilacap": {Servers: 1, TotalUsers: maxPopulationUsers + 1},
	} {
		if _, err := GeneratePopulation(cfg); err == nil {
			t.Errorf("%s: GeneratePopulation accepted %+v", name, cfg)
		}
	}
}

// FuzzParsePopulation locks the parser's contract: arbitrary input never
// panics, and any accepted spec survives a marshal/reparse round trip
// unchanged (so specs written by Marshal are always re-loadable).
func FuzzParsePopulation(f *testing.F) {
	f.Add([]byte(`{"servers": [[{"count": 5, "offset_ns": 1000}]]}`))
	f.Add([]byte(`{"servers": [[{"count": 1}, {"count": 2, "period_ns": 1}], []]}`))
	f.Add([]byte(`{"servers": []}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`[1, 2, 3]`))
	seed, err := GeneratePopulation(PopulationConfig{Servers: 4, TotalUsers: 37, Alpha: 1.2, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	data, err := seed.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePopulation(data)
		if err != nil {
			if p != nil {
				t.Fatal("non-nil population returned with an error")
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted population fails Validate: %v", err)
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("accepted population fails Marshal: %v", err)
		}
		q, err := ParsePopulation(out)
		if err != nil {
			t.Fatalf("marshaled population fails reparse: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the population:\nbefore %#v\nafter  %#v", p, q)
		}
		// Totals computed from the reparsed copy must agree too.
		if p.TotalUsers() != q.TotalUsers() || p.NumCohorts() != q.NumCohorts() {
			t.Fatal("round trip changed population totals")
		}
		if strings.Contains(string(out), "\t") {
			t.Fatal("Marshal emitted tabs; indented output should use spaces")
		}
	})
}

func TestExactCountsSumsAndDeterminism(t *testing.T) {
	weights := []float64{3.5, 1.1, 0, 2.4, 0.7}
	first, err := ExactCounts(weights, 97)
	if err != nil {
		t.Fatalf("ExactCounts: %v", err)
	}
	sum := 0
	for i, c := range first {
		if c < 0 {
			t.Fatalf("count %d is negative: %d", i, c)
		}
		sum += c
	}
	if sum != 97 {
		t.Fatalf("counts sum to %d, want 97", sum)
	}
	if first[2] != 0 {
		t.Fatalf("zero weight got %d units", first[2])
	}
	again, err := ExactCounts(weights, 97)
	if err != nil {
		t.Fatalf("second ExactCounts: %v", err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("ExactCounts is not deterministic: %v vs %v", first, again)
	}
}

func TestExactCountsProportional(t *testing.T) {
	counts, err := ExactCounts([]float64{1, 2, 1}, 400)
	if err != nil {
		t.Fatalf("ExactCounts: %v", err)
	}
	if counts[0] != 100 || counts[1] != 200 || counts[2] != 100 {
		t.Fatalf("counts %v, want [100 200 100]", counts)
	}
}

func TestExactCountsRejects(t *testing.T) {
	cases := []struct {
		name    string
		weights []float64
		total   int
	}{
		{"no weights", nil, 10},
		{"negative total", []float64{1}, -1},
		{"negative weight", []float64{1, -2}, 10},
		{"nan weight", []float64{math.NaN()}, 10},
		{"inf weight", []float64{math.Inf(1)}, 10},
		{"zero sum", []float64{0, 0}, 10},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ExactCounts(tc.weights, tc.total); err == nil {
				t.Fatal("ExactCounts accepted invalid input")
			}
		})
	}
}
