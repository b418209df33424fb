package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"cdnconsistency/internal/analysis"
	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/figures"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/runner"
	"cdnconsistency/internal/topology"
	"cdnconsistency/internal/trace"
	"cdnconsistency/internal/tracegen"
	"cdnconsistency/internal/workload"
)

// bench is one workload: inputs built in set-up, then repeated passes.
type bench interface {
	// setup builds the workload's inputs; it is timed as setup_s.
	setup(tr *tracer, parent *span) error
	// prepare restores inputs a pass consumes; it is not timed.
	prepare()
	// pass runs the timed operations once.
	pass(tr *tracer, parent *span) passResult
	// extras measures the traced run's derived ratios (speedups,
	// overheads), re-running work outside the profile; re-runs whose
	// output must not change are checked through chk.
	extras(tr *tracer, chk *checker, untracedWall float64) map[string]float64
	// workers is how many runner workers a pass uses.
	workers() int
}

var workloadNames = []string{"scale-cohort", "crawl-analysis", "figure-sweep", "plan-catalog"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// tuningSeeds are the input seeds a run's --seed selects from; heldOutSeed
// is recorded too but only used with --held-out, so a gain claimed on the
// tuning seeds can be re-checked on inputs nobody tuned against.
var tuningSeeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

const heldOutSeed = 1009

// catalogKey is the plan catalog's one digest entry: plans pin their own
// seeds (their SLOs are calibrated to them), so --seed does not change the
// catalog's inputs.
const catalogKey = "plans"

// inputSeed maps a run's --seed onto the seed its inputs are built from.
func inputSeed(name string, seed int64, heldOut bool) int64 {
	switch {
	case name == "plan-catalog":
		return 0
	case heldOut:
		return heldOutSeed
	}
	n := int64(len(tuningSeeds))
	return tuningSeeds[((seed%n)+n)%n]
}

// digestKey names an input seed's entry in digests.json.
func digestKey(name string, seed int64) string {
	if name == "plan-catalog" {
		return catalogKey
	}
	return seedKey(seed)
}

// recordedSeeds lists the input seeds --record covers.
func recordedSeeds(name string) []int64 {
	if name == "plan-catalog" {
		return []int64{0}
	}
	return append(append([]int64(nil), tuningSeeds...), heldOutSeed)
}

func newBench(cfg config) (bench, error) {
	switch cfg.workload {
	case "scale-cohort":
		return &cohortBench{cfg: cfg}, nil
	case "crawl-analysis":
		return &crawlBench{cfg: cfg}, nil
	case "figure-sweep":
		return &sweepBench{cfg: cfg}, nil
	case "plan-catalog":
		return &catalogBench{cfg: cfg}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// smallGame is a three-match publication schedule (the figures' small
// scale), used by the tiny test sizes.
func smallGame() workload.GameConfig {
	return figures.SmallSimScale().Game
}

// --- scale-cohort -----------------------------------------------------------

// cohortBench is one serial HAT run over the Section 5.3 deployment with a
// heavy-tailed cohort population: the ext-scale headline point.
type cohortBench struct {
	cfg  config
	topo *topology.Topology
	pop  *workload.Population
}

func (b *cohortBench) size() (servers, users, cohorts int, game workload.GameConfig) {
	if b.cfg.tiny {
		return 60, 10_000, 4, smallGame()
	}
	return 850, 1_000_000, 16, workload.DefaultGame()
}

func (b *cohortBench) workers() int { return 1 }
func (b *cohortBench) prepare()     {}

func (b *cohortBench) setup(tr *tracer, parent *span) error {
	servers, users, cohorts, _ := b.size()
	var err error
	tr.time(parent, "setup.topology", func() {
		b.topo, err = topology.Generate(topology.Config{Servers: servers, UsersPerServer: 5, Seed: b.cfg.seed})
	})
	if err != nil {
		return err
	}
	tr.time(parent, "setup.population", func() {
		b.pop, err = workload.GeneratePopulation(workload.PopulationConfig{
			Servers:          servers,
			TotalUsers:       users,
			Alpha:            1.2,
			CohortsPerServer: cohorts,
			SpreadMax:        50 * time.Second,
			Seed:             b.cfg.seed,
		})
	})
	return err
}

func (b *cohortBench) options(extra ...core.Option) []core.Option {
	servers, _, _, game := b.size()
	return append([]core.Option{
		core.WithServers(servers),
		core.WithUsersPerServer(5),
		core.WithClusters(20),
		core.WithSeed(b.cfg.seed),
		core.WithGame(game),
		core.WithServerTTL(60 * time.Second),
		core.WithUserModel(cdn.UserModelCohort),
		core.WithVisitAccounting(),
		core.WithTopology(b.topo),
		core.WithPopulation(b.pop),
	}, extra...)
}

func (b *cohortBench) pass(tr *tracer, parent *span) passResult {
	var (
		res *cdn.Result
		err error
	)
	d := tr.time(parent, "cdn.run", func() { res, err = core.Run(core.SystemHAT, b.options()...) })
	if err != nil {
		return passResult{outputs: []output{{id: "run", err: err}}}
	}
	return passResult{
		outputs: []output{{id: "run", digest: metricsDigest(plan.Metrics(res))}},
		work:    float64(res.Events),
		counts: map[string]float64{
			"sim.events":            float64(res.Events),
			"netmodel.msgs":         float64(res.Accounting.Total().Messages),
			"cdn.user_observations": float64(res.UserObservations),
		},
		layer: map[string]float64{"cdn.run_s": d.Seconds()},
	}
}

// extras times the same deployment on the sharded engine at one and two
// workers (the sharding decision-gate number); the two runs must agree
// exactly.
func (b *cohortBench) extras(tr *tracer, chk *checker, _ float64) map[string]float64 {
	var (
		secs    [2]float64
		digests [2]string
	)
	for i, shards := range []int{1, 2} {
		var (
			res *cdn.Result
			err error
		)
		secs[i] = tr.time(nil, fmt.Sprintf("cdn.run.shards%d", shards), func() {
			res, err = core.Run(core.SystemHAT, b.options(core.WithShards(shards))...)
		}).Seconds()
		if err != nil {
			chk.extra(fmt.Sprintf("shards%d", shards), false, err.Error())
			return nil
		}
		digests[i] = metricsDigest(plan.Metrics(res))
	}
	chk.extra("shards2", digests[0] == digests[1], "sharded results differ between 1 and 2 workers")
	return map[string]float64{"barrier.speedup_2v1": secs[0] / secs[1]}
}

// --- crawl-analysis ---------------------------------------------------------

// traceFigs are the Section-3 figure functions over one crawl.
var traceFigs = []struct {
	id string
	fn func(*figures.TraceEnv) (*figures.Table, error)
}{
	{"fig03", figures.Fig03}, {"fig04", figures.Fig04}, {"fig05", figures.Fig05},
	{"fig06", figures.Fig06}, {"fig07", figures.Fig07}, {"fig08", figures.Fig08},
	{"fig09", figures.Fig09}, {"fig10", figures.Fig10}, {"fig11", figures.Fig11},
	{"fig12", figures.Fig12}, {"tree_verdict", figures.TreeVerdictTable},
}

// unstableOutputs are outputs this commit's program does not reproduce from
// run to run. Fig11 and TreeVerdictTable pick "the largest cluster" by
// ranging over a map, so equal-size clusters tie-break in Go's random map
// order and their server_rank_spread row flips (0.160 vs 0.320 on input
// seed 8). They still run and are timed and digested; a mismatch is logged
// and counted in analysis.unstable_outputs instead of failing the run. A
// program fix makes the tie-break deterministic, re-records digests.json
// and empties this list.
var unstableOutputs = map[string]bool{"fig11": true, "tree_verdict": true}

// crawlBench generates a synthetic crawl in set-up, then indexes it and
// renders every Section-3 figure from it. It runs no simulation events.
type crawlBench struct {
	cfg     config
	gen     *tracegen.Result
	records []trace.PollRecord
}

func (b *crawlBench) scale() figures.TraceScale {
	if b.cfg.tiny {
		return figures.TraceScale{Servers: 30, Days: 1, Users: 10, Seed: b.cfg.seed}
	}
	return figures.TraceScale{Servers: 180, Days: 2, Users: 60, Seed: b.cfg.seed}
}

func (b *crawlBench) workers() int { return 1 }

func (b *crawlBench) setup(tr *tracer, parent *span) error {
	s := b.scale()
	var err error
	tr.time(parent, "setup.tracegen", func() {
		b.gen, err = tracegen.Generate(tracegen.Config{
			Topology: topology.Config{Servers: s.Servers, Seed: s.Seed},
			Days:     s.Days,
			Users:    s.Users,
			Seed:     s.Seed,
		})
	})
	if err != nil {
		return err
	}
	b.records = append([]trace.PollRecord(nil), b.gen.Trace.Records...)
	return nil
}

// prepare restores the crawl's generated record order: NewDataset sorts
// the trace in place, and every pass must index the same input.
func (b *crawlBench) prepare() {
	copy(b.gen.Trace.Records, b.records)
}

func (b *crawlBench) pass(tr *tracer, parent *span) passResult {
	var (
		ds  *analysis.Dataset
		err error
	)
	layer := map[string]float64{}
	layer["analysis.dataset_s"] = tr.time(parent, "analysis.dataset", func() {
		ds, err = analysis.NewDataset(b.gen.Trace)
	}).Seconds()
	if err != nil {
		return passResult{outputs: []output{{id: "dataset", err: err}}}
	}
	env := &figures.TraceEnv{Dataset: ds, Gen: b.gen}
	res := passResult{
		work:   float64(len(b.gen.Trace.Records)),
		counts: map[string]float64{"analysis.records": float64(len(b.gen.Trace.Records))},
		layer:  layer,
	}
	for _, f := range traceFigs {
		var t *figures.Table
		layer["analysis."+f.id+"_s"] = tr.time(parent, "analysis."+f.id, func() {
			t, err = f.fn(env)
		}).Seconds()
		res.outputs = append(res.outputs, tableOutput(f.id, t, err))
	}
	return res
}

func (b *crawlBench) extras(*tracer, *checker, float64) map[string]float64 { return nil }

func tableOutput(id string, t *figures.Table, err error) output {
	if err != nil {
		return output{id: id, err: err}
	}
	return output{id: id, digest: digestString(t.String())}
}

// --- figure-sweep -----------------------------------------------------------

// sweepFigs are the Section 4/5 simulation figures.
var sweepFigs = []struct {
	id string
	fn func(figures.SimScale) (*figures.Table, error)
}{
	{"fig14", figures.Fig14}, {"fig15", figures.Fig15}, {"fig16", figures.Fig16},
	{"fig17", figures.Fig17}, {"fig18", figures.Fig18}, {"fig19", figures.Fig19},
	{"fig20", figures.Fig20}, {"fig22", figures.Fig22}, {"fig23", figures.Fig23},
	{"fig24", figures.Fig24},
}

// sweepBench renders the simulation figures: hundreds of short
// explicit-user runs fanned out over the runner's workers.
type sweepBench struct {
	cfg config
}

func (b *sweepBench) scale(parallel int) figures.SimScale {
	s := figures.SmallSimScale()
	s.Seed = b.cfg.seed
	s.Parallel = parallel
	if b.cfg.tiny {
		s.Servers, s.Clusters = 12, 4
		s.Game.Phases = s.Game.Phases[:2]
	} else {
		s.Servers = 80
	}
	return s
}

func (b *sweepBench) workers() int { return b.cfg.workers }
func (b *sweepBench) prepare()     {}

// setup builds the deployment's topology and publication schedule. The
// figure functions build their own from the same configuration, so this
// times the set-up layers the sweep's runs depend on.
func (b *sweepBench) setup(tr *tracer, parent *span) error {
	s := b.scale(b.cfg.workers)
	var err error
	tr.time(parent, "setup.topology", func() {
		if _, err = topology.Generate(topology.Config{Servers: s.Servers, UsersPerServer: s.UsersPerServer, Seed: s.Seed}); err != nil {
			return
		}
		_, err = workload.Schedule(s.Game, s.Seed)
	})
	return err
}

func (b *sweepBench) pass(tr *tracer, parent *span) passResult {
	return b.sweep(tr, parent, b.cfg.workers)
}

func (b *sweepBench) sweep(tr *tracer, parent *span, parallel int) passResult {
	s := b.scale(parallel)
	res := passResult{layer: map[string]float64{}}
	var events uint64
	for _, f := range sweepFigs {
		var (
			t   *figures.Table
			err error
		)
		res.layer["figures."+f.id+"_s"] = tr.time(parent, "figures."+f.id, func() {
			t, err = f.fn(s)
		}).Seconds()
		if err == nil {
			events += t.SimEvents
		}
		res.outputs = append(res.outputs, tableOutput(f.id, t, err))
	}
	res.work = float64(events)
	res.counts = map[string]float64{"sim.events": float64(events)}
	return res
}

// extras re-runs the sweep on one worker: the output must not change, and
// the wall-time ratio is the runner's speedup.
func (b *sweepBench) extras(tr *tracer, chk *checker, untracedWall float64) map[string]float64 {
	if b.cfg.workers < 2 {
		return nil
	}
	sp := tr.start(nil, "figures.serial")
	res := b.sweep(tr, sp, 1)
	wall := sp.end().Seconds()
	for _, o := range res.outputs {
		ok := o.err == nil && o.digest == chk.want[o.id]
		chk.extra(o.id+"@1worker", ok, "output differs at one worker")
	}
	return map[string]float64{"runner.speedup": wall / untracedWall}
}

// --- plan-catalog -----------------------------------------------------------

// planFeatures are the plan properties whose cells' summed run time the
// traced run reports.
var planFeatures = []struct {
	name string
	has  func(*plan.Plan) bool
}{
	{"audited", func(p *plan.Plan) bool { return p.Audit }},
	{"sharded", func(p *plan.Plan) bool { return p.Shards > 0 }},
	{"fault", func(p *plan.Plan) bool { return p.FaultScenario != "" || p.Faults != nil }},
	{"federation", func(p *plan.Plan) bool { return p.Federation != nil }},
	{"import", func(p *plan.Plan) bool { return p.Import != "" }},
}

// catalogBench runs every cell of the committed plan catalog, as the
// catalog runner does, on the runner's workers.
type catalogBench struct {
	cfg   config
	plans []*plan.Plan
	cells []plan.Cell
}

func (b *catalogBench) workers() int { return b.cfg.workers }
func (b *catalogBench) prepare()     {}

func (b *catalogBench) setup(tr *tracer, parent *span) error {
	var err error
	tr.time(parent, "setup.plan_load", func() { b.plans, err = plan.LoadDir(b.cfg.planDir) })
	if err != nil {
		return err
	}
	b.cells = nil
	for _, p := range b.plans {
		cs, err := p.Cells()
		if err != nil {
			return err
		}
		b.cells = append(b.cells, cs...)
	}
	return nil
}

func (b *catalogBench) pass(tr *tracer, parent *span) passResult {
	n := len(b.cells)
	results := make([]*plan.CellResult, n)
	errs := make([]error, n)
	secs := make([]float64, n)
	_, _ = runner.Collect(b.cfg.workers, n, func(i int) (struct{}, error) {
		secs[i] = tr.time(parent, "plan.cell", func() {
			results[i], errs[i] = plan.RunCell(b.cells[i], plan.RunOptions{})
		}).Seconds()
		return struct{}{}, nil
	})

	res := passResult{
		whole:  map[string]string{},
		counts: map[string]float64{},
		layer:  map[string]float64{},
	}
	ids := make([]string, n)
	var all []*plan.CellResult
	for i, c := range b.cells {
		ids[i] = c.ID()
		r := results[i]
		if errs[i] != nil || r == nil {
			err := errs[i]
			if err == nil {
				err = fmt.Errorf("no result")
			}
			res.outputs = append(res.outputs, output{id: ids[i], err: err})
			continue
		}
		all = append(all, r)
		res.outputs = append(res.outputs, cellOutput(r))
		res.work += float64(r.Events)
		res.counts["sim.events"] += float64(r.Events)
		res.counts["netmodel.msgs"] += r.Metrics["total_msgs"]
		res.counts["cdn.user_observations"] += r.Metrics["user_observations"]
		res.counts["audit.checks"] += r.Metrics["audit_checks"]
		res.counts["plan.checks"] += float64(len(r.Checks))
		for _, f := range planFeatures {
			if f.has(c.Plan) {
				res.layer["plan."+f.name+"_s"] += secs[i]
			}
		}
	}
	if len(all) == n {
		for _, p := range b.plans {
			if cr := plan.EvalCompares(p, all); cr != nil {
				all = append(all, cr)
				res.outputs = append(res.outputs, cellOutput(cr))
				res.counts["plan.checks"] += float64(len(cr.Checks))
			}
		}
	}
	junit, err := plan.JUnit(all)
	if err != nil {
		res.outputs = append(res.outputs, output{id: "junit", err: err})
	}
	res.whole["junit"] = digest(junit)
	res.whole["cells"] = digestString(strings.Join(ids, "\n"))
	res.counts["plan.cells"] = float64(n)
	res.layer["plan.cell_p50_ms"] = nearestRank(secs, 50) * 1e3
	res.layer["plan.cell_p80_ms"] = nearestRank(secs, 80) * 1e3
	return res
}

func cellOutput(r *plan.CellResult) output {
	data, err := json.Marshal(r)
	if err != nil {
		return output{id: r.ID, err: err}
	}
	return output{id: r.ID, digest: digest(data), failed: r.Failed()}
}

// extras times the audited cells with and without the auditor, serially
// and alternating, three times each.
func (b *catalogBench) extras(tr *tracer, _ *checker, _ float64) map[string]float64 {
	var audited, plain []plan.Cell
	for _, c := range b.cells {
		if !c.Plan.Audit {
			continue
		}
		audited = append(audited, c)
		p := *c.Plan
		p.Audit, p.AuditCadence = false, 0
		c.Plan = &p
		plain = append(plain, c)
	}
	if len(audited) == 0 {
		return nil
	}
	runAll := func(name string, cells []plan.Cell) float64 {
		return tr.time(nil, name, func() {
			for _, c := range cells {
				_, _ = plan.RunCell(c, plan.RunOptions{}) // timing only; outputs are checked in the passes
			}
		}).Seconds()
	}
	var on, off []float64
	for rep := 0; rep < 3; rep++ {
		on = append(on, runAll("plan.audited_cells", audited))
		off = append(off, runAll("plan.unaudited_cells", plain))
	}
	return map[string]float64{"audit.overhead_frac": median(on)/median(off) - 1}
}
