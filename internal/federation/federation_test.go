package federation

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/fault"
)

func TestParseSpecRoundTrip(t *testing.T) {
	in := `{
	  "providers": [
	    {"name": "atlanta", "lat": 33.75, "lon": -84.39},
	    {"name": "frankfurt", "lat": 50.11, "lon": 8.68, "ttl": "30s", "propagation": 2}
	  ],
	  "broker": {"period": "1m", "hysteresis": 0.2, "min_dwell": "3m"},
	  "stale_cap": "10m"
	}`
	s, err := ParseSpec([]byte(in))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(s.Providers) != 2 {
		t.Fatalf("providers = %d, want 2", len(s.Providers))
	}
	if got := s.Providers[1].TTL.D(); got != 30*time.Second {
		t.Errorf("frankfurt ttl = %v, want 30s", got)
	}
	if got := s.Providers[1].Propagation.D(); got != 2*time.Second {
		t.Errorf("frankfurt propagation = %v, want 2s (numeric seconds)", got)
	}
	if s.Broker == nil || s.Broker.Period.D() != time.Minute || s.Broker.Hysteresis != 0.2 {
		t.Errorf("broker = %+v, want period 1m hysteresis 0.2", s.Broker)
	}
	if s.StaleCap.D() != 10*time.Minute {
		t.Errorf("stale_cap = %v, want 10m", s.StaleCap.D())
	}

	out, err := s.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	back, err := ParseSpec(out)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Errorf("round trip changed spec:\n  first:  %+v\n  second: %+v", s, back)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string
	}{
		{"unknown field", `{"providers": [{"name": "a", "lat": 0, "lon": 0}], "bogus": 1}`, "bogus"},
		{"trailing data", `{"providers": [{"name": "a", "lat": 0, "lon": 0}]} {}`, "trailing"},
		{"trailing brace", `{"providers": [{"name": "a", "lat": 0, "lon": 0}]}}`, "trailing"},
		{"trailing brackets", `{"providers": [{"name": "a", "lat": 0, "lon": 0}]} ]]]`, "trailing"},
		{"no providers", `{"providers": []}`, "at least one"},
		{"bad name", `{"providers": [{"name": "9bad", "lat": 0, "lon": 0}]}`, "name"},
		{"dup name", `{"providers": [{"name": "a", "lat": 0, "lon": 0}, {"name": "a", "lat": 1, "lon": 1}]}`, "duplicate"},
		{"bad lat", `{"providers": [{"name": "a", "lat": 91, "lon": 0}]}`, "lat"},
		{"bad lon", `{"providers": [{"name": "a", "lat": 0, "lon": -181}]}`, "lon"},
		{"negative ttl", `{"providers": [{"name": "a", "lat": 0, "lon": 0, "ttl": -1}]}`, "ttl"},
		{"negative propagation", `{"providers": [{"name": "a", "lat": 0, "lon": 0, "propagation": -1}]}`, "propagation"},
		{"negative stale cap", `{"providers": [{"name": "a", "lat": 0, "lon": 0}], "stale_cap": -1}`, "stale_cap"},
		{"broker no period", `{"providers": [{"name": "a", "lat": 0, "lon": 0}], "broker": {}}`, "period"},
		{"broker bad hysteresis", `{"providers": [{"name": "a", "lat": 0, "lon": 0}], "broker": {"period": "1m", "hysteresis": -0.1}}`, "hysteresis"},
		{"broker bad dwell", `{"providers": [{"name": "a", "lat": 0, "lon": 0}], "broker": {"period": "1m", "min_dwell": -1}}`, "min_dwell"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSpec([]byte(tc.in)); err == nil {
				t.Fatalf("ParseSpec accepted %s", tc.in)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestParseSpecRejectsTooManyProviders(t *testing.T) {
	s := Spec{}
	for i := 0; i < maxProviders+1; i++ {
		s.Providers = append(s.Providers, Provider{Name: "p" + string(rune('a'+i)), Lat: float64(i), Lon: float64(i)})
	}
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted too many providers")
	} else if !strings.Contains(err.Error(), "maximum") {
		t.Errorf("error %q does not mention the maximum", err)
	}
}

func TestDefaultSpec(t *testing.T) {
	for _, n := range []int{-3, 0, 1, 3, 8, 99} {
		s := DefaultSpec(n)
		if err := s.Validate(); err != nil {
			t.Errorf("DefaultSpec(%d) invalid: %v", n, err)
		}
		want := n
		if want < 1 {
			want = 1
		}
		if want > 8 {
			want = 8
		}
		if len(s.Providers) != want {
			t.Errorf("DefaultSpec(%d) has %d providers, want %d", n, len(s.Providers), want)
		}
	}
	if got := DefaultSpec(3).Providers[0].Name; got != "atlanta" {
		t.Errorf("provider 0 = %q, want atlanta (the paper's origin)", got)
	}
}

func TestDurationsAcceptNumericSeconds(t *testing.T) {
	s, err := ParseSpec([]byte(`{"providers": [{"name": "a", "lat": 0, "lon": 0, "ttl": 45}], "stale_cap": 120}`))
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if s.Providers[0].TTL != fault.Duration(45*time.Second) {
		t.Errorf("ttl = %v, want 45s", s.Providers[0].TTL.D())
	}
	if s.StaleCap.D() != 2*time.Minute {
		t.Errorf("stale_cap = %v, want 2m", s.StaleCap.D())
	}
}
