package fault

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"cdnconsistency/internal/geo"
)

func testEnv(n int) Env {
	locs := make([]geo.Point, n)
	isps := make([]int, n)
	for i := range locs {
		locs[i] = geo.Point{Lat: float64(i % 60), Lon: float64(i * 2 % 120)}
		isps[i] = i % 5
	}
	return Env{Servers: n, Locs: locs, ISPs: isps, Horizon: 30 * time.Minute}
}

func compileOK(t *testing.T, spec Spec, env Env, seed int64) []Event {
	t.Helper()
	evs, err := Compile(spec, env, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return evs
}

func TestCompileCrashAndRecovery(t *testing.T) {
	spec := Spec{Crashes: []Crash{
		{Server: 3, At: Duration(5 * time.Minute), RecoverAfter: Duration(2 * time.Minute)},
		{Server: 7, At: Duration(10 * time.Minute)},
	}}
	evs := compileOK(t, spec, testEnv(10), 1)
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %+v", len(evs), evs)
	}
	if evs[0].Op != OpServerDown || evs[0].Server != 3 || evs[0].At != 5*time.Minute {
		t.Errorf("first event %+v", evs[0])
	}
	if evs[1].Op != OpServerUp || evs[1].Server != 3 || evs[1].At != 7*time.Minute {
		t.Errorf("second event %+v", evs[1])
	}
	if evs[2].Op != OpServerDown || evs[2].Server != 7 {
		t.Errorf("third event %+v", evs[2])
	}
}

func TestCompileFractionalTimes(t *testing.T) {
	spec := Spec{ProviderOutages: []Window{{StartFrac: 0.5, DurFrac: 0.1}}}
	env := testEnv(4)
	evs := compileOK(t, spec, env, 1)
	if len(evs) != 2 {
		t.Fatalf("events: %+v", evs)
	}
	if evs[0].At != env.Horizon/2 {
		t.Errorf("outage start %v, want %v", evs[0].At, env.Horizon/2)
	}
	if evs[1].At != env.Horizon/2+env.Horizon/10 {
		t.Errorf("outage end %v", evs[1].At)
	}
}

func TestCompileDeterministic(t *testing.T) {
	spec := Spec{
		RandomCrashes: &RandomCrashes{Frac: 0.3, RecoverAfter: Duration(time.Minute)},
		Partitions:    []Partition{{StartFrac: 0.4, DurFrac: 0.2, RandomISPs: 2}},
		Overloads:     []Overload{{RandomServers: 3, StartFrac: 0.2, DurFrac: 0.3, Factor: 4}},
	}
	env := testEnv(20)
	a := compileOK(t, spec, env, 42)
	b := compileOK(t, spec, env, 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed compiled different schedules")
	}
	c := compileOK(t, spec, env, 43)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds compiled identical random schedules")
	}
}

func TestCompileRandomCrashesDefaultsToMiddleThird(t *testing.T) {
	spec := Spec{RandomCrashes: &RandomCrashes{Count: 8, RecoverAfter: Duration(time.Minute)}}
	env := testEnv(16)
	evs := compileOK(t, spec, env, 5)
	downs := 0
	for _, e := range evs {
		if e.Op != OpServerDown {
			continue
		}
		downs++
		if e.At < env.Horizon/3 || e.At > 2*env.Horizon/3 {
			t.Errorf("crash at %v outside middle third of %v", e.At, env.Horizon)
		}
	}
	if downs != 8 {
		t.Errorf("%d crashes, want 8", downs)
	}
}

func TestCompileRandomCrashVictimsDistinct(t *testing.T) {
	spec := Spec{RandomCrashes: &RandomCrashes{Frac: 1}}
	evs := compileOK(t, spec, testEnv(12), 9)
	seen := make(map[int]bool)
	for _, e := range evs {
		if seen[e.Server] {
			t.Fatalf("server %d crashed twice", e.Server)
		}
		seen[e.Server] = true
	}
	if len(seen) != 12 {
		t.Errorf("%d distinct victims, want 12", len(seen))
	}
}

func TestCompileRegionalSelectsByRadius(t *testing.T) {
	env := Env{
		Servers: 4,
		Locs: []geo.Point{
			{Lat: 50.0, Lon: 8.6},   // near Frankfurt
			{Lat: 50.2, Lon: 8.9},   // near Frankfurt
			{Lat: 35.6, Lon: 139.7}, // Tokyo
			{Lat: 33.7, Lon: -84.4}, // Atlanta
		},
		Horizon: 20 * time.Minute,
	}
	spec := Spec{Regional: []Regional{{
		Lat: 50.11, Lon: 8.68, RadiusKm: 300,
		At: Duration(5 * time.Minute), RecoverAfter: Duration(time.Minute),
	}}}
	evs := compileOK(t, spec, env, 3)
	victims := make(map[int]bool)
	for _, e := range evs {
		if e.Op == OpServerDown {
			victims[e.Server] = true
		}
	}
	if !victims[0] || !victims[1] || victims[2] || victims[3] {
		t.Errorf("victims = %v, want exactly {0, 1}", victims)
	}
}

func TestCompilePartitionExplicitAndRandomISPs(t *testing.T) {
	spec := Spec{Partitions: []Partition{
		{Start: Duration(time.Minute), Duration: Duration(2 * time.Minute), ISPs: []int{1, 3}},
		{StartFrac: 0.5, DurFrac: 0.1, RandomISPs: 2},
	}}
	evs := compileOK(t, spec, testEnv(10), 2)
	if len(evs) != 4 {
		t.Fatalf("events: %+v", evs)
	}
	var starts []Event
	for _, e := range evs {
		if e.Op == OpPartitionStart {
			starts = append(starts, e)
		}
	}
	if len(starts) != 2 {
		t.Fatalf("starts: %+v", starts)
	}
	if !reflect.DeepEqual(starts[0].ISPs, []int{1, 3}) {
		t.Errorf("explicit ISPs = %v", starts[0].ISPs)
	}
	if len(starts[1].ISPs) != 2 {
		t.Errorf("random ISPs = %v, want 2", starts[1].ISPs)
	}
	if starts[0].Group == starts[1].Group {
		t.Error("concurrent partitions share a group id")
	}
}

func TestCompileEventsSorted(t *testing.T) {
	spec := Spec{
		Crashes:         []Crash{{Server: 5, AtFrac: 0.9}, {Server: 1, AtFrac: 0.1}},
		ProviderOutages: []Window{{StartFrac: 0.5, DurFrac: 0.2}},
	}
	evs := compileOK(t, spec, testEnv(8), 1)
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatalf("events unsorted: %+v", evs)
		}
	}
}

func TestCompileRejectsBadInput(t *testing.T) {
	env := testEnv(8)
	rng := func() *rand.Rand { return rand.New(rand.NewSource(1)) }
	bad := []Spec{
		{Crashes: []Crash{{Server: 99, AtFrac: 0.5}}},                                 // server out of range
		{Crashes: []Crash{{Server: -1, AtFrac: 0.5}}},                                 // negative server
		{Crashes: []Crash{{Server: 0, AtFrac: 1.5}}},                                  // fraction above 1
		{Crashes: []Crash{{Server: 0, At: Duration(2 * time.Hour)}}},                  // beyond horizon
		{RandomCrashes: &RandomCrashes{}},                                             // no victims
		{RandomCrashes: &RandomCrashes{Frac: 2}},                                      // frac above 1
		{RandomCrashes: &RandomCrashes{Count: 2, WindowStart: 0.9, WindowFrac: 0.5}},  // window past end
		{ProviderOutages: []Window{{StartFrac: 0.5}}},                                 // zero duration
		{Partitions: []Partition{{StartFrac: 0.1, DurFrac: 0.1}}},                     // no ISPs
		{Overloads: []Overload{{Server: 0, StartFrac: 0.1, DurFrac: 0.1, Factor: 1}}}, // factor <= 1
		{Regional: []Regional{{Lat: 0, Lon: 0, RadiusKm: -5, AtFrac: 0.1}}},           // bad radius
		{Regional: []Regional{{Lat: -89, Lon: 170, RadiusKm: 1, AtFrac: 0.1}}},        // no servers in radius
	}
	for i, spec := range bad {
		if _, err := Compile(spec, env, rng()); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := Compile(Spec{}, Env{Servers: 0, Horizon: time.Minute}, rng()); err == nil {
		t.Error("zero-server env accepted")
	}
	if _, err := Compile(Spec{}, Env{Servers: 1}, rng()); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := Compile(Spec{}, testEnv(4), nil); err == nil {
		t.Error("nil rng accepted")
	}
}

func TestParseSpecJSON(t *testing.T) {
	data := []byte(`{
		"crashes": [{"server": 2, "at": "5m", "recover_after": 90}],
		"provider_outages": [{"start_frac": 0.4, "dur_frac": 0.15}],
		"partitions": [{"start": "8m", "duration": "3m", "isps": [12, 13]}],
		"overloads": [{"random_servers": 4, "start_frac": 0.3, "dur_frac": 0.2, "factor": 6}]
	}`)
	spec, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if len(spec.Crashes) != 1 || spec.Crashes[0].At.D() != 5*time.Minute {
		t.Errorf("crashes = %+v", spec.Crashes)
	}
	if spec.Crashes[0].RecoverAfter.D() != 90*time.Second {
		t.Errorf("numeric seconds not parsed: %v", spec.Crashes[0].RecoverAfter.D())
	}
	if len(spec.Partitions) != 1 || spec.Partitions[0].Duration.D() != 3*time.Minute {
		t.Errorf("partitions = %+v", spec.Partitions)
	}
	if spec.Empty() {
		t.Error("parsed spec reported empty")
	}
}

func TestParseSpecRejectsUnknownFieldsAndBadDurations(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"crashs": []}`)); err == nil {
		t.Error("typo field accepted")
	}
	if _, err := ParseSpec([]byte(`{"crashes": [{"server": 0, "at": "fast"}]}`)); err == nil {
		t.Error("bad duration accepted")
	}
	if _, err := ParseSpec([]byte(`{"crashes": [{"server": 0, "at": []}]}`)); err == nil {
		t.Error("array duration accepted")
	}
}

func TestScenarioNamesResolve(t *testing.T) {
	names := ScenarioNames()
	if len(names) == 0 {
		t.Fatal("no scenarios")
	}
	env := testEnv(40)
	for _, name := range names {
		spec, err := Scenario(name)
		if err != nil {
			t.Fatalf("Scenario(%q): %v", name, err)
		}
		if spec.Empty() {
			t.Errorf("scenario %q is empty", name)
		}
		if name == "regional" {
			continue // needs real-geo locations; covered in cdn tests
		}
		if _, err := Compile(spec, env, rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("scenario %q does not compile: %v", name, err)
		}
	}
	if _, err := Scenario("nope"); err == nil {
		t.Error("unknown scenario accepted")
	}
}

func TestSpecRoundTripsThroughJSON(t *testing.T) {
	spec, err := Scenario("mixed")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("round trip changed spec:\n%+v\n%+v", spec, back)
	}
}

func TestSpecValidate(t *testing.T) {
	ok := []Spec{
		{},
		{Crashes: []Crash{{Server: 3, AtFrac: 0.5, RecoverAfter: Duration(time.Minute)}}},
		{RandomCrashes: &RandomCrashes{Frac: 0.125}},
		{Partitions: []Partition{{StartFrac: 0.4, DurFrac: 0.2, RandomISPs: 4}}},
		{Overloads: []Overload{{RandomServers: 2, StartFrac: 0.3, DurFrac: 0.2, Factor: 8}}},
		{Regional: []Regional{{Lat: 40, Lon: -74, RadiusKm: 500, AtFrac: 0.5}}},
		{ProviderStorm: &ProviderStorm{StartFrac: 0.2, DurFrac: 0.1, Stagger: Duration(time.Minute)}},
		{ProviderFlaps: []ProviderFlap{{Count: 3, Period: Duration(time.Minute), Downtime: Duration(10 * time.Second)}}},
	}
	for i, s := range ok {
		if err := s.Validate(); err != nil {
			t.Errorf("valid spec %d rejected: %v", i, err)
		}
	}
	bad := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative crash server", Spec{Crashes: []Crash{{Server: -1}}}, "negative server"},
		{"crash frac above 1", Spec{Crashes: []Crash{{AtFrac: 1.5}}}, "outside [0, 1]"},
		{"negative recover", Spec{Crashes: []Crash{{RecoverAfter: Duration(-time.Second)}}}, "negative recover_after"},
		{"random crashes unset", Spec{RandomCrashes: &RandomCrashes{}}, "count and frac both unset"},
		{"random crashes frac", Spec{RandomCrashes: &RandomCrashes{Frac: 2}}, "outside [0, 1]"},
		{"random crashes window", Spec{RandomCrashes: &RandomCrashes{Count: 1, WindowStart: 0.9, WindowFrac: 0.5}}, "outside (0, 1]"},
		{"outage negative start", Spec{ProviderOutages: []Window{{Start: Duration(-time.Second)}}}, "negative time"},
		{"partition no isps", Spec{Partitions: []Partition{{DurFrac: 0.1}}}, "both unset"},
		{"partition negative isp", Spec{Partitions: []Partition{{ISPs: []int{-3}}}}, "negative isp"},
		{"overload factor", Spec{Overloads: []Overload{{Factor: 1}}}, "must be > 1"},
		{"regional radius", Spec{Regional: []Regional{{RadiusKm: 0}}}, "non-positive radius"},
		{"storm stagger", Spec{ProviderStorm: &ProviderStorm{Stagger: Duration(-time.Second)}}, "negative stagger"},
		{"flap count", Spec{ProviderFlaps: []ProviderFlap{{Period: Duration(time.Minute), Downtime: Duration(time.Second)}}}, "count"},
		{"flap downtime", Spec{ProviderFlaps: []ProviderFlap{{Count: 1, Period: Duration(time.Minute), Downtime: Duration(time.Minute)}}}, "downtime"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("Validate accepted invalid spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestBuiltinScenariosValidate(t *testing.T) {
	for _, name := range ScenarioNames() {
		s, err := Scenario(name)
		if err != nil {
			t.Fatalf("Scenario(%q): %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("built-in scenario %q fails Validate: %v", name, err)
		}
	}
}

func TestParseSpecRejectsTrailingData(t *testing.T) {
	for _, suffix := range []string{" {}", "}", " ]]]"} {
		in := `{"crashes":[{"server":0}]}` + suffix
		if _, err := ParseSpec([]byte(in)); err == nil || !strings.Contains(err.Error(), "trailing data") {
			t.Errorf("ParseSpec(%q): want trailing-data error, got %v", in, err)
		}
	}
}
