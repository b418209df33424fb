// Command cdnsim runs one trace-driven CDN consistency simulation — an
// update method on an update infrastructure — and prints the metrics the
// paper reports: per-server/per-user inconsistency, traffic cost, message
// counts, and user-observed inconsistency.
//
// Usage:
//
//	cdnsim -method TTL -infra Unicast -servers 170 -users 5
//	cdnsim -system HAT                     # one of the paper's named systems
//	cdnsim -system TTL -faults churn -failover
//	cdnsim -faults @scenario.json          # hand-written fault spec
//	cdnsim -system TTL -federation 3 -faults provider-storm -failover
//	cdnsim -federation @providers.json     # hand-written multi-CDN spec
//	cdnsim -system HAT -audit              # run under the invariant auditor
//	cdnsim -system HAT -shards 4           # sharded multi-core engine, 4 workers
//	cdnsim -system HAT -shards 4 -audit    # sharded AND audited (barrier sweeps)
//	cdnsim -system HAT -timeout 2m         # abort if the run exceeds 2 minutes
//	cdnsim -plan plans/00-baseline.json    # run a scenario plan's cells serially
//	cdnsim -system HAT -import crawl.jsonl # replay an imported deployment (trace or bundle)
//	cdnsim -system HAT -cpuprofile cpu.out # pprof CPU profile (also -memprofile, -trace)
//
// The simulation flags are the fields of a plan.Scenario, the same value a
// plan file embeds (plans/README.md has the flag-to-field table): each flag
// the user sets fills its field, unset flags keep the simulation defaults,
// and Scenario.Validate rejects bad values and conflicting combinations
// (-import with a flag the bundle supplies, -federation with -shards,
// -audit-self-test without -audit) with the same rules a plan gets.
// Scenario.Options then compiles the run's configuration. -switch is the
// one flag outside the scenario.
//
// SIGINT/SIGTERM cancels the simulation promptly at its next event-loop
// tick; -timeout bounds the run's wall-clock time the same way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cdnconsistency/internal/cdn"
	"cdnconsistency/internal/core"
	"cdnconsistency/internal/fault"
	"cdnconsistency/internal/federation"
	"cdnconsistency/internal/plan"
	"cdnconsistency/internal/profiling"
	"cdnconsistency/internal/stats"
	"cdnconsistency/internal/traceimport"
	"cdnconsistency/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cdnsim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) (retErr error) {
	fs := flag.NewFlagSet("cdnsim", flag.ContinueOnError)
	var (
		system    = fs.String("system", "", "named system: Push, Invalidation, TTL, Self, Hybrid, HAT")
		method    = fs.String("method", "TTL", "update method: TTL, Push, Invalidation, Self, AdaptiveTTL, Lease, Regime")
		infra     = fs.String("infra", "Unicast", "infrastructure: Unicast, Multicast, Hybrid, Broadcast")
		servers   = fs.Int("servers", 170, "content servers")
		users     = fs.Int("users", 5, "end-users per server")
		serverTTL = fs.Duration("serverttl", 60*time.Second, "content-server TTL")
		userTTL   = fs.Duration("userttl", 10*time.Second, "end-user visit period")
		updateKB  = fs.Float64("updatekb", 1, "update payload size (KB)")
		clusters  = fs.Int("clusters", 20, "hybrid cluster count")
		seed      = fs.Int64("seed", 1, "deterministic seed")
		switching = fs.Bool("switch", false, "users switch servers every visit (Figure 24 scenario)")
		usermodel = fs.String("usermodel", "explicit", "end-user model: explicit (one actor per user) or cohort (weighted per-server cohorts; scales to millions of users)")
		popFile   = fs.String("population", "", "@file.json population spec (see workload.Population); default for -usermodel cohort: a heavy-tailed draw of servers*users total users")
		cohorts   = fs.Int("cohorts", 8, "cohorts per server for the generated population; setting it draws that population under either user model")
		shards    = fs.Int("shards", 0, "sharded multi-core engine worker count (0 = serial engine; results are identical for any value >= 1)")
		cells     = fs.Int("shardcells", 0, "sharded partition cell count (0 = default 8); the cell count, not the worker count, shapes sharded results")
		faults    = fs.String("faults", "", "fault scenario: a built-in name ("+strings.Join(fault.ScenarioNames(), ", ")+") or @file.json")
		fed       = fs.String("federation", "", "multi-CDN federation: a provider count (default real-city sites) or @file.json spec; serial-only")
		failover  = fs.Bool("failover", false, "enable failure-aware failover reactions")
		audit     = fs.Bool("audit", false, "run under the runtime invariant auditor (fails fast on a violated conservation property; metrics are unchanged; composes with -shards)")
		auditCad  = fs.Duration("audit-cadence", 0, "auditor sweep cadence in simulated time (0 = auditor default)")
		auditSelf = fs.String("audit-self-test", "", "inject a named deliberate corruption mid-run to prove the auditor tripwire fires; the run must fail (requires -audit; names: "+strings.Join(cdn.AuditSelfTestNames(), ", ")+")")
		planFile  = fs.String("plan", "", "run one scenario plan file (JSON) serially, printing every check and metric per cell; other simulation flags are ignored")
		importArg = fs.String("import", "", "replay an imported deployment: a crawl trace (JSONL or #cdnlog access log, inferred on the fly) or a pre-inferred bundle JSON; supplies the topology, TTLs, workload, population, and fault windows, so the flags those replace are rejected")
		timeout   = fs.Duration("timeout", 0, "wall-clock deadline for the run (0 = none)")
		cpuprof   = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof   = fs.String("memprofile", "", "write a pprof heap profile (post-GC, at exit) to this file")
		traceOut  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	profStop, profErr := profiling.Start(profiling.Config{CPUProfile: *cpuprof, MemProfile: *memprof, Trace: *traceOut})
	if profErr != nil {
		return profErr
	}
	defer func() {
		if perr := profStop(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()
	if *timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *planFile != "" {
		if *importArg != "" {
			return fmt.Errorf("-plan and -import are mutually exclusive (a plan names its import inside the file)")
		}
		return runPlan(ctx, *planFile, stdout)
	}

	name := *system
	if name == "" {
		name = *method + "/" + *infra
	}
	sys, err := core.SystemByName(name)
	if err != nil {
		return err
	}
	// A scenario's zero means "the default", so zero servers or users
	// cannot be asked for.
	if *servers < 1 || *users < 1 {
		return fmt.Errorf("-servers and -users must be >= 1")
	}

	// The scenario takes only the flags the user set: an unset field keeps
	// the simulation default, and a set flag that conflicts with -import
	// is rejected by Scenario.Validate like the matching plan field.
	var sc plan.Scenario
	gen := &plan.PopulationGen{
		TotalUsers:       *servers * *users,
		Alpha:            1.2,
		CohortsPerServer: *cohorts,
		Period:           plan.Duration(*userTTL),
	}
	fs.Visit(func(f *flag.Flag) {
		// An empty string flag is off, the same as an unset one.
		if err != nil || f.Value.String() == "" {
			return
		}
		switch f.Name {
		case "servers":
			sc.Servers = *servers
		case "users":
			sc.UsersPerServer = *users
		case "serverttl":
			sc.ServerTTL = plan.Duration(*serverTTL)
		case "userttl":
			sc.UserTTL = plan.Duration(*userTTL)
		case "updatekb":
			sc.UpdateSizeKB = *updateKB
		case "clusters":
			sc.Clusters = *clusters
		case "usermodel":
			sc.UserModel = *usermodel
		case "population":
			path, ok := strings.CutPrefix(*popFile, "@")
			if !ok {
				err = fmt.Errorf("-population wants @file.json, got %q", *popFile)
				return
			}
			sc.Population, err = readSpec(path, workload.ParsePopulation)
		case "cohorts":
			sc.PopulationGen = gen
		case "faults":
			if path, ok := strings.CutPrefix(*faults, "@"); ok {
				var spec fault.Spec
				spec, err = readSpec(path, fault.ParseSpec)
				sc.Faults = &spec
			} else {
				sc.FaultScenario = *faults
			}
		case "federation":
			var spec federation.Spec
			spec, err = federation.Resolve(*fed)
			sc.Federation = &spec
		case "failover":
			sc.Failover = *failover
		case "shards":
			sc.Shards = *shards
		case "shardcells":
			sc.ShardCells = *cells
		case "audit":
			sc.Audit = *audit
		case "audit-cadence":
			sc.AuditCadence = plan.Duration(*auditCad)
		case "audit-self-test":
			sc.AuditSelfTest = *auditSelf
		case "import":
			sc.Import = *importArg
		case "switch":
			if *importArg != "" {
				err = fmt.Errorf("-import and -switch are mutually exclusive (the imported bundle supplies the users)")
			}
		}
	})
	if err != nil {
		return err
	}
	// The cohort model's default population: a heavy-tailed draw of
	// servers*users users.
	if sc.UserModel == cdn.UserModelCohort && sc.Population == nil && sc.Import == "" {
		sc.PopulationGen = gen
	}
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.Import != "" {
		b, format, err := traceimport.LoadAny(sc.Import)
		if err != nil {
			return err
		}
		sc.Bundle = b
		s := b.Summary
		fmt.Fprintf(stdout, "import\t%s format=%s servers=%d sites=%d users=%d server_ttl=%v updates_per_day=%.0f fault_windows=%d\n",
			sc.Import, format, s.Servers, s.Sites, s.Users, s.ServerTTL.D(), s.UpdatesPerDay, len(b.CrashWindows()))
	}
	opts, err := sc.Options(*seed)
	if err != nil {
		return err
	}
	if *switching {
		opts = append(opts, core.WithUserSwitching())
	}
	res, err := core.Run(sys, append(opts, core.WithContext(ctx))...)
	if err != nil {
		return err
	}
	printResult(stdout, sys, res)
	return nil
}

// runPlan executes one scenario plan's cells serially — the calibration view:
// every assertion verdict plus the full metric map per cell, so an operator
// can read off the numbers an SLO should pin. Exits non-zero if any cell
// fails.
func runPlan(ctx context.Context, path string, stdout io.Writer) error {
	p, err := plan.LoadFile(path)
	if err != nil {
		return err
	}
	cells, err := p.Cells()
	if err != nil {
		return err
	}
	failed, total := 0, 0
	var results []*plan.CellResult
	for _, c := range cells {
		r, err := plan.RunCell(c, plan.RunOptions{Ctx: ctx})
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, r.Render())
		fmt.Fprint(stdout, r.RenderMetrics())
		results = append(results, r)
		total++
		if r.Failed() {
			failed++
		}
	}
	// Cross-system compares are judged once the whole matrix has run.
	if cr := plan.EvalCompares(p, results); cr != nil {
		fmt.Fprint(stdout, cr.Render())
		total++
		if cr.Failed() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d plan cells failed", failed, total)
	}
	return nil
}

// readSpec reads a spec file and hands it to its package's strict parser.
func readSpec[T any](path string, parse func([]byte) (T, error)) (T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		var zero T
		return zero, err
	}
	return parse(data)
}

func printResult(w io.Writer, sys core.System, res *cdn.Result) {
	fmt.Fprintf(w, "system\t%s (%v on %v)\n", sys.Name, sys.Method, sys.Infra)
	fmt.Fprintf(w, "tree_depth\t%d\n", res.TreeDepth)
	if res.Supernodes > 0 {
		fmt.Fprintf(w, "supernodes\t%d\n", res.Supernodes)
	}
	ss, err := stats.Summarize(res.ServerAvgInconsistency)
	if err == nil {
		fmt.Fprintf(w, "server_inconsistency_s\tmean=%.3f p5=%.3f median=%.3f p95=%.3f\n",
			res.MeanServerInconsistency(), ss.P5, ss.Median, ss.P95)
	}
	us, err := stats.Summarize(res.UserAvgInconsistency)
	if err == nil {
		fmt.Fprintf(w, "user_inconsistency_s\tmean=%.3f p5=%.3f median=%.3f p95=%.3f\n",
			res.MeanUserInconsistency(), us.P5, us.Median, us.P95)
	}
	fmt.Fprintf(w, "update_msgs_to_servers\t%d\n", res.UpdateMsgsToServers)
	fmt.Fprintf(w, "update_msgs_from_provider\t%d\n", res.UpdateMsgsFromProvider)
	fmt.Fprintf(w, "light_msgs\t%d\n", res.LightMsgs)
	for _, class := range res.Accounting.Classes() {
		tot := res.Accounting.ByClass[class]
		fmt.Fprintf(w, "traffic_%v\tmsgs=%d km=%.0f kmKB=%.0f\n", class, tot.Messages, tot.Km, tot.KmKB)
	}
	fmt.Fprintf(w, "user_inconsistent_observation_frac\t%.4f\n", res.InconsistentObservationFrac())
	if res.Crashes > 0 || res.FailedVisits > 0 || res.StaleObservations > 0 {
		fmt.Fprintf(w, "crashes\t%d recovered=%d mean_recovery_s=%.1f\n",
			res.Crashes, res.Recoveries, res.MeanRecoverySeconds())
		fmt.Fprintf(w, "failed_visits\t%d frac=%.4f user_failovers=%d\n",
			res.FailedVisits, res.FailedVisitFrac(), res.UserFailovers)
		fmt.Fprintf(w, "stale_serve_frac\t%.4f\n", res.StaleServeFrac())
		fmt.Fprintf(w, "failover_actions\treparents=%d ttl_fallbacks=%d\n",
			res.ServerReparents, res.TTLFallbacks)
	}
	if res.DegradedSeconds > 0 || res.ProviderSwitches > 0 || res.PeerHandoffs > 0 || res.StrandedUsers > 0 {
		fmt.Fprintf(w, "federation\tdegraded_s=%.1f intervals=%d switches=%d handoffs=%d stranded=%d\n",
			res.DegradedSeconds, res.DegradedEnters, res.ProviderSwitches, res.PeerHandoffs, res.StrandedUsers)
	}
	fmt.Fprintf(w, "events\t%d\n", res.Events)
}
