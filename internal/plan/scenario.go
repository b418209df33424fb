package plan

import (
	"fmt"
	"strings"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/traceimport"
	"cdnconsistency/internal/workload"
)

// Duration aliases fault.Duration so plan files accept both "90s"-style
// strings and plain numbers of seconds.
type Duration = fault.Duration

// PhaseSpec is one workload phase: updates arrive with exponential gaps of
// MeanGap while it lasts; MeanGap 0 marks a silent break.
type PhaseSpec struct {
	Name     string   `json:"name,omitempty"`
	Duration Duration `json:"duration"`
	MeanGap  Duration `json:"mean_gap,omitempty"`
}

// GameSpec describes the publication workload (see workload.GameConfig).
type GameSpec struct {
	Phases []PhaseSpec `json:"phases"`
	SizeKB float64     `json:"size_kb,omitempty"`
	MinGap Duration    `json:"min_gap,omitempty"`
}

// Config converts the spec into the workload package's native form.
func (g *GameSpec) Config() workload.GameConfig {
	cfg := workload.GameConfig{SizeKB: g.SizeKB, MinGap: g.MinGap.D()}
	for _, p := range g.Phases {
		cfg.Phases = append(cfg.Phases, workload.Phase{
			Name: p.Name, Duration: p.Duration.D(), MeanGap: p.MeanGap.D(),
		})
	}
	return cfg
}

// PopulationGen draws a heavy-tailed population instead of spelling one out
// (see workload.GeneratePopulation). Servers comes from the scenario
// topology; Seed 0 uses the run's seed, so a multi-seed plan draws a fresh
// population per seed.
type PopulationGen struct {
	TotalUsers       int      `json:"total_users"`
	Alpha            float64  `json:"alpha,omitempty"`
	CohortsPerServer int      `json:"cohorts_per_server,omitempty"`
	Period           Duration `json:"period,omitempty"`
	SpreadMax        Duration `json:"spread_max,omitempty"`
	Seed             int64    `json:"seed,omitempty"`
}

// Scenario is one deployment: topology, protocol parameters, workload,
// users, faults, federation and engine. A plan file embeds it next to its
// systems, seeds and assertions; cmd/cdnsim builds one from its flags. Zero
// fields keep the simulation defaults, and Validate states every
// field-level rule and mutual exclusion once for both surfaces.
type Scenario struct {
	// Import replays an inferred deployment (internal/traceimport): the
	// path — relative to the plan file's directory — of a bundle JSON, a
	// JSONL crawl trace, or a "#cdnlog" access log. The bundle supplies
	// the topology, TTLs, update workload, user population, and fault
	// windows, so Import is mutually exclusive with the fields it replaces
	// (servers, TTLs, game, population, faults, federation, shards).
	Import string `json:"import,omitempty"`
	// Bundle is the resolved Import, loaded by the caller (LoadFile,
	// cdnsim -import) so that Validate stays free of file IO. It never
	// marshals: a plan file points at its import, it does not copy it.
	Bundle *traceimport.Bundle `json:"-"`

	// Topology. Zero fields keep the simulation defaults (170 servers,
	// 5 users per server, 20 clusters).
	Servers         int `json:"servers,omitempty"`
	UsersPerServer  int `json:"users_per_server,omitempty"`
	Clusters        int `json:"clusters,omitempty"`
	TreeDegree      int `json:"tree_degree,omitempty"`
	SupernodeDegree int `json:"supernode_degree,omitempty"`

	// Protocol parameters. Zero keeps the defaults (60s server TTL, 10s
	// user TTL, 1 KB updates).
	ServerTTL    Duration `json:"server_ttl,omitempty"`
	UserTTL      Duration `json:"user_ttl,omitempty"`
	UpdateSizeKB float64  `json:"update_size_kb,omitempty"`

	// Game replaces the default publication workload (the paper's trace
	// day) with an explicit phase list.
	Game *GameSpec `json:"game,omitempty"`

	// UserModel selects the end-user simulation model: "" or "explicit"
	// (one actor per user) or "cohort" (weighted per-server cohorts;
	// requires Population or PopulationGen).
	UserModel string `json:"user_model,omitempty"`
	// Population pins the user population explicitly; PopulationGen draws
	// one. At most one of the two may be set.
	Population    *workload.Population `json:"population,omitempty"`
	PopulationGen *PopulationGen       `json:"population_gen,omitempty"`

	// Federation runs against a multi-CDN federation: provider origins
	// with distinct TTLs and propagation lags, anycast homing, peering
	// hand-off, an optional meta-CDN broker, and serve-stale degradation
	// (see internal/federation). The federation layer is serial-only:
	// mutually exclusive with Shards.
	Federation *federation.Spec `json:"federation,omitempty"`

	// FaultScenario names a built-in fault scenario (fault.ScenarioNames);
	// Faults spells one out inline. At most one of the two may be set.
	FaultScenario string      `json:"fault_scenario,omitempty"`
	Faults        *fault.Spec `json:"faults,omitempty"`
	// Failover enables the failure-aware protocol reactions.
	Failover bool `json:"failover,omitempty"`

	// Shards > 0 runs on the sharded multi-core engine with that many
	// workers over ShardCells partition cells (default 8).
	Shards     int `json:"shards,omitempty"`
	ShardCells int `json:"shard_cells,omitempty"`

	// Audit runs under the runtime invariant auditor, sweeping at
	// AuditCadence (0 = auditor default). Composes with Shards: a sharded
	// run audits at its window barriers. AuditSelfTest names a deliberate
	// corruption (see cdn.AuditOptions.SelfTest) injected mid-run to prove
	// the tripwire fires — a run carrying it must FAIL.
	Audit         bool     `json:"audit,omitempty"`
	AuditCadence  Duration `json:"audit_cadence,omitempty"`
	AuditSelfTest string   `json:"audit_self_test,omitempty"`
}

// Validate checks the scenario without running anything or touching the
// filesystem: non-negative sizes and durations, a well-formed game,
// population, fault and federation spec, and the mutual exclusions the cdn
// layer would otherwise reject run by run.
func (s *Scenario) Validate() error {
	for _, v := range []struct {
		name string
		val  int
	}{
		{"servers", s.Servers}, {"users_per_server", s.UsersPerServer},
		{"clusters", s.Clusters}, {"tree_degree", s.TreeDegree},
		{"supernode_degree", s.SupernodeDegree},
		{"shards", s.Shards}, {"shard_cells", s.ShardCells},
	} {
		if v.val < 0 {
			return fmt.Errorf("negative %s %d", v.name, v.val)
		}
	}
	for _, v := range []struct {
		name string
		val  Duration
	}{
		{"server_ttl", s.ServerTTL}, {"user_ttl", s.UserTTL},
		{"audit_cadence", s.AuditCadence},
	} {
		if v.val < 0 {
			return fmt.Errorf("negative %s %v", v.name, v.val.D())
		}
	}
	if s.UpdateSizeKB < 0 {
		return fmt.Errorf("negative update_size_kb %v", s.UpdateSizeKB)
	}
	if s.Game != nil {
		if len(s.Game.Phases) == 0 {
			return fmt.Errorf("game has no phases")
		}
		for i, ph := range s.Game.Phases {
			if ph.Duration <= 0 {
				return fmt.Errorf("game phase %d has non-positive duration", i)
			}
			if ph.MeanGap < 0 {
				return fmt.Errorf("game phase %d has negative mean gap", i)
			}
		}
		if s.Game.SizeKB < 0 || s.Game.MinGap < 0 {
			return fmt.Errorf("negative game size_kb or min_gap")
		}
	}
	switch s.UserModel {
	case "", cdn.UserModelExplicit, cdn.UserModelCohort:
	default:
		return fmt.Errorf("unknown user_model %q (want \"explicit\" or \"cohort\")", s.UserModel)
	}
	if s.Import != "" {
		for _, c := range []struct {
			name string
			set  bool
		}{
			{"servers", s.Servers > 0},
			{"users_per_server", s.UsersPerServer > 0},
			{"server_ttl", s.ServerTTL > 0},
			{"user_ttl", s.UserTTL > 0},
			{"update_size_kb", s.UpdateSizeKB > 0},
			{"game", s.Game != nil},
			{"population", s.Population != nil},
			{"population_gen", s.PopulationGen != nil},
			{"fault_scenario", s.FaultScenario != ""},
			{"faults", s.Faults != nil},
			{"federation", s.Federation != nil},
			{"shards", s.Shards > 0},
			{"shard_cells", s.ShardCells > 0},
		} {
			if c.set {
				return fmt.Errorf("import and %s are mutually exclusive (the imported bundle supplies it)", c.name)
			}
		}
	}
	if s.Population != nil && s.PopulationGen != nil {
		return fmt.Errorf("population and population_gen are mutually exclusive")
	}
	if s.UserModel == cdn.UserModelCohort && s.Population == nil && s.PopulationGen == nil && s.Import == "" {
		return fmt.Errorf("user_model cohort requires population or population_gen")
	}
	if s.Population != nil {
		if err := s.Population.Validate(); err != nil {
			return err
		}
	}
	if g := s.PopulationGen; g != nil {
		if g.TotalUsers <= 0 {
			return fmt.Errorf("population_gen.total_users must be > 0, got %d", g.TotalUsers)
		}
		if g.CohortsPerServer < 0 || g.Period < 0 || g.SpreadMax < 0 {
			return fmt.Errorf("negative population_gen field")
		}
	}
	if s.FaultScenario != "" && s.Faults != nil {
		return fmt.Errorf("fault_scenario and faults are mutually exclusive")
	}
	if s.FaultScenario != "" {
		if _, err := fault.Scenario(s.FaultScenario); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return err
		}
	}
	if s.AuditSelfTest != "" {
		if !s.Audit {
			return fmt.Errorf("audit_self_test requires audit")
		}
		if !cdn.ValidAuditSelfTest(s.AuditSelfTest) {
			return fmt.Errorf("unknown audit_self_test %q (valid: %s)",
				s.AuditSelfTest, strings.Join(cdn.AuditSelfTestNames(), ", "))
		}
	}
	if s.Federation != nil {
		if err := s.Federation.Validate(); err != nil {
			return err
		}
		if s.Shards > 0 {
			return fmt.Errorf("federation and shards are mutually exclusive (the federation layer is serial-only)")
		}
	}
	return nil
}

// Options compiles the scenario into the core configuration for one run at
// seed. A generated population is drawn per call (seeded by seed unless the
// generator pins its own), and an import bundle's options are materialized
// per call too, so concurrent runs never share a topology.
func (s *Scenario) Options(seed int64) ([]core.Option, error) {
	// WithSeed leads: WithGame, including the bundle's, draws its schedule
	// from the seed in effect when it applies.
	opts := []core.Option{core.WithSeed(seed)}
	if s.Import != "" {
		if s.Bundle == nil {
			return nil, fmt.Errorf("import %q was not resolved (load the plan with LoadFile or set Scenario.Bundle)", s.Import)
		}
		bopts, err := s.Bundle.Options()
		if err != nil {
			return nil, err
		}
		opts = append(opts, bopts...)
	}
	if s.Servers > 0 {
		opts = append(opts, core.WithServers(s.Servers))
	}
	if s.UsersPerServer > 0 {
		opts = append(opts, core.WithUsersPerServer(s.UsersPerServer))
	}
	if s.Clusters > 0 {
		opts = append(opts, core.WithClusters(s.Clusters))
	}
	if s.TreeDegree > 0 {
		opts = append(opts, core.WithTreeDegree(s.TreeDegree))
	}
	if s.SupernodeDegree > 0 {
		opts = append(opts, core.WithSupernodeDegree(s.SupernodeDegree))
	}
	if s.ServerTTL > 0 {
		opts = append(opts, core.WithServerTTL(s.ServerTTL.D()))
	}
	if s.UserTTL > 0 {
		opts = append(opts, core.WithUserTTL(s.UserTTL.D()))
	}
	if s.UpdateSizeKB > 0 {
		opts = append(opts, core.WithUpdateSizeKB(s.UpdateSizeKB))
	}
	if s.Game != nil {
		opts = append(opts, core.WithGame(s.Game.Config()))
	}
	if s.Population != nil {
		opts = append(opts, core.WithPopulation(s.Population))
	} else if g := s.PopulationGen; g != nil {
		servers := s.Servers
		if servers <= 0 {
			servers = 170
		}
		genSeed := g.Seed
		if genSeed == 0 {
			genSeed = seed
		}
		pop, err := workload.GeneratePopulation(workload.PopulationConfig{
			Servers:          servers,
			TotalUsers:       g.TotalUsers,
			Alpha:            g.Alpha,
			CohortsPerServer: g.CohortsPerServer,
			Period:           g.Period.D(),
			SpreadMax:        g.SpreadMax.D(),
			Seed:             genSeed,
		})
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithPopulation(pop))
	}
	if s.UserModel != "" {
		opts = append(opts, core.WithUserModel(s.UserModel))
	}
	if s.Faults != nil {
		opts = append(opts, core.WithFaults(*s.Faults))
	} else if s.FaultScenario != "" {
		spec, err := fault.Scenario(s.FaultScenario)
		if err != nil {
			return nil, err
		}
		opts = append(opts, core.WithFaults(spec))
	}
	if s.Failover {
		opts = append(opts, core.WithFailover())
	}
	if s.Federation != nil {
		opts = append(opts, core.WithFederation(*s.Federation))
	}
	if s.Shards > 0 {
		opts = append(opts, core.WithShards(s.Shards))
		if s.ShardCells > 0 {
			opts = append(opts, core.WithShardCells(s.ShardCells))
		}
	}
	if s.Audit {
		opts = append(opts, core.WithAudit(s.AuditCadence.D()))
		if s.AuditSelfTest != "" {
			opts = append(opts, core.WithAuditSelfTest(s.AuditSelfTest))
		}
	}
	return opts, nil
}
