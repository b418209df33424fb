// Package fault declares and compiles deterministic fault scenarios for the
// CDN simulation: crash-stop and crash-recovery of content servers, provider
// outage windows, ISP-level network partitions, transient server overload,
// and correlated regional failures around a geographic point.
//
// A Spec is declarative — it names what goes wrong and when, either at
// absolute virtual times or as fractions of the run horizon — and Compile
// turns it into a sorted event schedule against a concrete deployment
// (server count, locations, ISPs, horizon). Random draws (victim selection,
// in-window timing) come from the caller's seeded RNG, so the same spec,
// deployment, and seed always yield the same schedule.
//
// The scenario families mirror the paper's Section 3.4 root causes of
// real-CDN inconsistency: server failure and overload, and inter-ISP
// disruption.
package fault

import (
	"encoding/json"
	"fmt"
	"time"

	"cdnconsistency/internal/geo"
	"cdnconsistency/internal/strictjson"
)

// Duration is a time.Duration that (un)marshals JSON as either a Go
// duration string ("30s", "2m") or a number of seconds.
type Duration time.Duration

// D returns the native duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// MarshalJSON renders the duration as a string ("1m30s").
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "30s"-style strings or plain numbers of seconds.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("fault: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var secs float64
	if err := json.Unmarshal(data, &secs); err != nil {
		return fmt.Errorf("fault: duration must be a string or seconds: %s", data)
	}
	*d = Duration(time.Duration(secs * float64(time.Second)))
	return nil
}

// Crash fails one named server. RecoverAfter == 0 means crash-stop (the
// server never returns); otherwise the server crash-recovers after that
// long, losing its cached content and re-syncing from its parent.
type Crash struct {
	// Server is a 0-based content-server index (matching
	// topology.Topology.Servers order).
	Server int `json:"server"`
	// At is the absolute failure time; AtFrac places it at a fraction of
	// the run horizon instead when At is zero.
	At     Duration `json:"at,omitempty"`
	AtFrac float64  `json:"at_frac,omitempty"`
	// RecoverAfter is the downtime; 0 is a permanent crash-stop.
	RecoverAfter Duration `json:"recover_after,omitempty"`
}

// RandomCrashes fails Count (or ceil(Frac x servers)) distinct random
// servers at uniform random times inside [WindowStart, WindowStart +
// WindowFrac] x horizon.
type RandomCrashes struct {
	Count int     `json:"count,omitempty"`
	Frac  float64 `json:"frac,omitempty"`
	// RecoverAfter is the per-server downtime; 0 is crash-stop.
	RecoverAfter Duration `json:"recover_after,omitempty"`
	// WindowStart/WindowFrac bound the failure window as fractions of the
	// horizon; both zero means the middle third of the run.
	WindowStart float64 `json:"window_start,omitempty"`
	WindowFrac  float64 `json:"window_frac,omitempty"`
}

// Window is one provider outage: the provider stops answering polls,
// fetches, and lease renewals, and defers dissemination until it returns.
type Window struct {
	Start     Duration `json:"start,omitempty"`
	StartFrac float64  `json:"start_frac,omitempty"`
	// Duration is the outage length; DurFrac expresses it as a horizon
	// fraction when Duration is zero.
	Duration Duration `json:"duration,omitempty"`
	DurFrac  float64  `json:"dur_frac,omitempty"`
}

// Partition isolates a set of ISPs from the rest of the network for a
// window: messages across the cut are dropped (senders detect the loss only
// via timeouts). ISPs inside the partition still reach each other.
type Partition struct {
	Start     Duration `json:"start,omitempty"`
	StartFrac float64  `json:"start_frac,omitempty"`
	Duration  Duration `json:"duration,omitempty"`
	DurFrac   float64  `json:"dur_frac,omitempty"`
	// ISPs lists the ISP ids cut off; RandomISPs instead samples that many
	// of the deployment's ISPs.
	ISPs       []int `json:"isps,omitempty"`
	RandomISPs int   `json:"random_isps,omitempty"`
}

// Overload inflates one server's service delay (uplink serialization and
// per-message processing) by Factor for a window, modeling transient
// overload that slows, but does not stop, the replica.
type Overload struct {
	// Server is a 0-based server index; RandomServers instead samples that
	// many distinct servers, all overloaded for the same window.
	Server        int      `json:"server,omitempty"`
	RandomServers int      `json:"random_servers,omitempty"`
	Start         Duration `json:"start,omitempty"`
	StartFrac     float64  `json:"start_frac,omitempty"`
	Duration      Duration `json:"duration,omitempty"`
	DurFrac       float64  `json:"dur_frac,omitempty"`
	// Factor multiplies the server's service delay; must be > 1.
	Factor float64 `json:"factor"`
}

// Regional fails servers within RadiusKm of a geographic center — a
// correlated failure (regional power or backbone loss). Frac controls what
// share of the in-radius servers fail (default 1: all of them).
type Regional struct {
	Lat      float64  `json:"lat"`
	Lon      float64  `json:"lon"`
	RadiusKm float64  `json:"radius_km"`
	At       Duration `json:"at,omitempty"`
	AtFrac   float64  `json:"at_frac,omitempty"`
	// RecoverAfter is the downtime; 0 is crash-stop.
	RecoverAfter Duration `json:"recover_after,omitempty"`
	Frac         float64  `json:"frac,omitempty"`
}

// ProviderStorm rolls an outage wave across every federated provider:
// provider k goes down at start + k x stagger, each for the same duration.
// A stagger shorter than duration/(providers-1) overlaps the windows into a
// full all-providers-down blackout — the scenario that exercises
// serve-stale degradation. Against a single-provider deployment the storm
// degenerates to a plain provider outage.
type ProviderStorm struct {
	Start     Duration `json:"start,omitempty"`
	StartFrac float64  `json:"start_frac,omitempty"`
	// Duration is each provider's outage length; DurFrac expresses it as a
	// horizon fraction when Duration is zero.
	Duration Duration `json:"duration,omitempty"`
	DurFrac  float64  `json:"dur_frac,omitempty"`
	// Stagger is the delay between successive providers' failures
	// (0 = all providers drop simultaneously).
	Stagger Duration `json:"stagger,omitempty"`
}

// ProviderFlap bounces one provider down and back up Count times: down at
// start + i x period for downtime each cycle. Rapid flapping is what the
// meta-CDN broker's hysteresis exists to absorb.
type ProviderFlap struct {
	// Provider is the 0-based federated provider index (0 = the primary,
	// also valid for single-provider runs).
	Provider  int      `json:"provider,omitempty"`
	Count     int      `json:"count"`
	Start     Duration `json:"start,omitempty"`
	StartFrac float64  `json:"start_frac,omitempty"`
	// Period is the cycle length; Downtime (the down share of each cycle)
	// must be shorter than it.
	Period   Duration `json:"period"`
	Downtime Duration `json:"downtime"`
}

// Spec is one declarative fault scenario. The zero Spec injects nothing.
type Spec struct {
	Crashes         []Crash        `json:"crashes,omitempty"`
	RandomCrashes   *RandomCrashes `json:"random_crashes,omitempty"`
	ProviderOutages []Window       `json:"provider_outages,omitempty"`
	Partitions      []Partition    `json:"partitions,omitempty"`
	Overloads       []Overload     `json:"overloads,omitempty"`
	Regional        []Regional     `json:"regional,omitempty"`
	ProviderStorm   *ProviderStorm `json:"provider_storm,omitempty"`
	ProviderFlaps   []ProviderFlap `json:"provider_flaps,omitempty"`
}

// Empty reports whether the spec injects no faults at all.
func (s Spec) Empty() bool {
	return len(s.Crashes) == 0 && s.RandomCrashes == nil &&
		len(s.ProviderOutages) == 0 && len(s.Partitions) == 0 &&
		len(s.Overloads) == 0 && len(s.Regional) == 0 &&
		s.ProviderStorm == nil && len(s.ProviderFlaps) == 0
}

// ParseSpec decodes a JSON scenario. Unknown fields are rejected so typos
// in hand-written scenario files fail loudly, and the decoded spec must
// pass Validate.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := strictjson.Decode(data, &s); err != nil {
		return Spec{}, fmt.Errorf("fault: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// checkPoint validates one at/at_frac pair: the absolute time non-negative,
// the fraction inside [0, 1].
func checkPoint(what string, at Duration, frac float64) error {
	if at.D() < 0 {
		return fmt.Errorf("%s: negative time %v", what, at.D())
	}
	if frac < 0 || frac > 1 {
		return fmt.Errorf("%s: fraction %v outside [0, 1]", what, frac)
	}
	return nil
}

// checkWindow validates a start/duration window declared either absolutely
// or as horizon fractions.
func checkWindow(what string, start Duration, startFrac float64, dur Duration, durFrac float64) error {
	if err := checkPoint(what+" start", start, startFrac); err != nil {
		return err
	}
	if err := checkPoint(what+" duration", dur, durFrac); err != nil {
		return err
	}
	return nil
}

// Validate checks the deployment-independent invariants of the spec:
// non-negative times and counts, fractions within range, windows and
// factors structurally sane. Deployment-dependent checks (victim indices
// against the server count, windows against the horizon) stay in Compile,
// which knows the concrete environment. A spec that fails Validate can
// never compile; one that passes may still be rejected by Compile.
func (s Spec) Validate() error {
	for i, cr := range s.Crashes {
		if cr.Server < 0 {
			return fmt.Errorf("fault: crash %d: negative server index %d", i, cr.Server)
		}
		if err := checkPoint(fmt.Sprintf("fault: crash %d", i), cr.At, cr.AtFrac); err != nil {
			return err
		}
		if cr.RecoverAfter.D() < 0 {
			return fmt.Errorf("fault: crash %d: negative recover_after %v", i, cr.RecoverAfter.D())
		}
	}
	if rc := s.RandomCrashes; rc != nil {
		if rc.Count < 0 {
			return fmt.Errorf("fault: random_crashes: negative count %d", rc.Count)
		}
		if rc.Frac < 0 || rc.Frac > 1 {
			return fmt.Errorf("fault: random_crashes: frac %v outside [0, 1]", rc.Frac)
		}
		if rc.Count == 0 && rc.Frac == 0 {
			return fmt.Errorf("fault: random_crashes: count and frac both unset")
		}
		if rc.RecoverAfter.D() < 0 {
			return fmt.Errorf("fault: random_crashes: negative recover_after %v", rc.RecoverAfter.D())
		}
		start, frac := rc.WindowStart, rc.WindowFrac
		if start != 0 || frac != 0 {
			if start < 0 || start >= 1 {
				return fmt.Errorf("fault: random_crashes: window_start %v outside [0, 1)", start)
			}
			if frac <= 0 || start+frac > 1 {
				return fmt.Errorf("fault: random_crashes: window [%v, %v+%v] outside (0, 1]", start, start, frac)
			}
		}
	}
	for i, w := range s.ProviderOutages {
		if err := checkWindow(fmt.Sprintf("fault: provider_outage %d", i), w.Start, w.StartFrac, w.Duration, w.DurFrac); err != nil {
			return err
		}
	}
	for i, p := range s.Partitions {
		if err := checkWindow(fmt.Sprintf("fault: partition %d", i), p.Start, p.StartFrac, p.Duration, p.DurFrac); err != nil {
			return err
		}
		for _, isp := range p.ISPs {
			if isp < 0 {
				return fmt.Errorf("fault: partition %d: negative isp %d", i, isp)
			}
		}
		if p.RandomISPs < 0 {
			return fmt.Errorf("fault: partition %d: negative random_isps %d", i, p.RandomISPs)
		}
		if len(p.ISPs) == 0 && p.RandomISPs == 0 {
			return fmt.Errorf("fault: partition %d: isps and random_isps both unset", i)
		}
	}
	for i, o := range s.Overloads {
		if o.Server < 0 {
			return fmt.Errorf("fault: overload %d: negative server index %d", i, o.Server)
		}
		if o.RandomServers < 0 {
			return fmt.Errorf("fault: overload %d: negative random_servers %d", i, o.RandomServers)
		}
		if err := checkWindow(fmt.Sprintf("fault: overload %d", i), o.Start, o.StartFrac, o.Duration, o.DurFrac); err != nil {
			return err
		}
		if o.Factor <= 1 {
			return fmt.Errorf("fault: overload %d: factor %v must be > 1", i, o.Factor)
		}
	}
	for i, r := range s.Regional {
		if r.RadiusKm <= 0 {
			return fmt.Errorf("fault: regional %d: non-positive radius %v km", i, r.RadiusKm)
		}
		if err := checkPoint(fmt.Sprintf("fault: regional %d", i), r.At, r.AtFrac); err != nil {
			return err
		}
		if r.RecoverAfter.D() < 0 {
			return fmt.Errorf("fault: regional %d: negative recover_after %v", i, r.RecoverAfter.D())
		}
		if r.Frac < 0 || r.Frac > 1 {
			return fmt.Errorf("fault: regional %d: frac %v outside [0, 1]", i, r.Frac)
		}
	}
	if ps := s.ProviderStorm; ps != nil {
		if err := checkWindow("fault: provider_storm", ps.Start, ps.StartFrac, ps.Duration, ps.DurFrac); err != nil {
			return err
		}
		if ps.Stagger.D() < 0 {
			return fmt.Errorf("fault: provider_storm: negative stagger %v", ps.Stagger.D())
		}
	}
	for i, f := range s.ProviderFlaps {
		if f.Provider < 0 {
			return fmt.Errorf("fault: provider_flap %d: negative provider index %d", i, f.Provider)
		}
		if f.Count <= 0 {
			return fmt.Errorf("fault: provider_flap %d: count %d must be > 0", i, f.Count)
		}
		if err := checkPoint(fmt.Sprintf("fault: provider_flap %d", i), f.Start, f.StartFrac); err != nil {
			return err
		}
		if f.Period.D() <= 0 {
			return fmt.Errorf("fault: provider_flap %d: non-positive period %v", i, f.Period.D())
		}
		if f.Downtime.D() <= 0 || f.Downtime.D() >= f.Period.D() {
			return fmt.Errorf("fault: provider_flap %d: downtime %v must lie inside (0, period %v)", i, f.Downtime.D(), f.Period.D())
		}
	}
	return nil
}

// distanceWithin reports whether a server location lies inside the regional
// failure radius.
func distanceWithin(r Regional, loc geo.Point) bool {
	return geo.DistanceKm(geo.Point{Lat: r.Lat, Lon: r.Lon}, loc) <= r.RadiusKm
}
