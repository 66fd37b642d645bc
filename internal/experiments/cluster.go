package experiments

import (
	"fmt"

	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/faults"
	"lukewarm/internal/program"
	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
)

// The cluster experiment takes the paper's single-node story to fleet
// reality: it sweeps node count × failure rate × fleet placement policy and
// reports what failures cost — availability after retries and hedging, the
// cold/lukewarm/warm split of what was actually served (node crashes
// destroy the warm state and Jukebox metadata the single-node results bank
// on), retry-inflated tail latency, wasted hedge work, and time spent in
// brownout tiers. Each sweep point is one clusterJob, cached and fanned out
// like every other experiment.

// Cluster-sweep parameters: a few cores per node under brisk traffic so the
// fleet has queueing to balance, a compressed cold-start charge (as in the
// keep-alive sweep), and a front end with the full resilience stack armed.
const (
	clusterCores     = 4
	clusterIATms     = 30
	clusterColdMs    = 25
	clusterKeepMs    = 200
	clusterSeed      = 31
	clusterFaultSeed = 1009

	clusterDeadlineMs = 150
	clusterRetryMax   = 2
	clusterBackoffMs  = 2
	clusterHedgeMinMs = 1
	clusterEjectAfter = 4
	clusterEjectMs    = 50
	clusterShedLowMs  = 20
	clusterRecOnlyMs  = 40
	clusterRejectMs   = 80
)

// clusterNodeCounts is the fleet-size axis.
var clusterNodeCounts = []int{1, 2, 4}

// clusterFleetPlacers enumerates the fleet placement policies, baseline
// first. Placement runs at node scope here: Last/ForeignSince describe the
// node where a function last completed and how much foreign work it has
// absorbed since — the same warmth signal the per-core policies read.
var clusterFleetPlacers = []string{"EarliestAvailable", "StickyAffinity"}

// clusterFaultLevel is one failure-rate point of the sweep.
type clusterFaultLevel struct {
	name      string
	flakeProb float64
	crashProb float64
	mtbfMs    float64
	downMs    float64
}

// clusterFaultLevels is the failure-rate axis: clean, a production-shaped
// moderate level, and a heavy level where whole-node crashes dominate.
var clusterFaultLevels = []clusterFaultLevel{
	{name: "none"},
	{name: "moderate", flakeProb: 0.04, crashProb: 0.02, mtbfMs: 2000, downMs: 100},
	{name: "heavy", flakeProb: 0.25, crashProb: 0.12, mtbfMs: 500, downMs: 250},
}

// ClusterRow is one (nodes, fault level, fleet policy) cell of the sweep.
type ClusterRow struct {
	// Nodes is the fleet size.
	Nodes int
	// Policy names the fleet placement policy.
	Policy string
	// FaultLevel names the failure-rate point.
	FaultLevel string
	// C is the fleet run's summary.
	C cluster.Summary
}

// ClusterResult backs the `lukewarm cluster` experiment.
type ClusterResult struct {
	// Rows holds the sweep in (policy, fault level, nodes) order.
	Rows []ClusterRow
}

// clusterJob is one fleet run of the sweep. Run completes cfg with the
// named functions, a fresh fleet placer and, when faultKinds is non-empty,
// a fault plan seeded with faultSeed.
type clusterJob struct {
	funcs      []string
	cfg        cluster.Config
	placer     string
	level      string
	faultKinds []faults.Kind
	faultSeed  uint64
	audit      bool
}

func (j clusterJob) Label() string {
	return fmt.Sprintf("cluster/%s/%s/nodes=%d", j.placer, j.level, j.cfg.Nodes)
}

func (j clusterJob) Run() (cluster.Summary, error) {
	cfg := j.cfg
	ws, err := byNames(j.funcs)
	if err != nil {
		return cluster.Summary{}, err
	}
	cfg.Workloads = ws
	cfg.FleetPlacer = newFleetPlacer(j.placer)
	if len(j.faultKinds) > 0 {
		cfg.Faults = faults.NewPlan(j.faultSeed, j.faultKinds...)
	}
	res, err := cluster.Run(cfg)
	if err != nil {
		return cluster.Summary{}, err
	}
	if j.audit {
		if err := cluster.Audit(&res); err != nil {
			return cluster.Summary{}, fmt.Errorf("%s: %w", j.Label(), err)
		}
	}
	return res.Summary(), nil
}

// newFleetPlacer builds a fresh fleet placement policy by name.
func newFleetPlacer(name string) sched.Placer {
	if name == "StickyAffinity" {
		return sched.StickyAffinity(0)
	}
	return sched.EarliestAvailable()
}

// newClusterJob describes one sweep point: the resilience front end fully
// armed, and every second function low-priority so the tier-1 shed rung
// has something to drop under brownout.
func newClusterJob(opt Options, funcs []string, nodes int, policy string, level clusterFaultLevel, invocs int) clusterJob {
	jb := core.DefaultConfig()
	j := clusterJob{
		funcs: funcs,
		cfg: cluster.Config{
			Nodes: nodes,
			Node:  serverless.Config{Cores: clusterCores, Jukebox: &jb},
			Traffic: serverless.TrafficConfig{
				MeanIATms:              clusterIATms,
				Poisson:                true,
				InvocationsPerInstance: invocs,
				KeepAliveMs:            clusterKeepMs,
				ColdStartMs:            clusterColdMs,
				Seed:                   clusterSeed,
			},

			DeadlineMs:      clusterDeadlineMs,
			RetryMax:        clusterRetryMax,
			RetryBackoffMs:  clusterBackoffMs,
			HedgeDelayMinMs: clusterHedgeMinMs,
			EjectAfter:      clusterEjectAfter,
			EjectMs:         clusterEjectMs,
			ShedLowAtMs:     clusterShedLowMs,
			RecordOnlyAtMs:  clusterRecOnlyMs,
			RejectAtMs:      clusterRejectMs,
		},
		placer: policy,
		level:  level.name,
		audit:  opt.Audit,
	}
	for i, name := range funcs {
		if i%2 == 1 {
			j.cfg.LowPriority = append(j.cfg.LowPriority, name)
		}
	}
	if level.flakeProb > 0 || level.crashProb > 0 || level.mtbfMs > 0 {
		j.faultKinds = []faults.Kind{faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake}
		j.faultSeed = program.Mix(clusterFaultSeed, uint64(nodes))
		j.cfg.DispatchFlakeProb = level.flakeProb
		j.cfg.InstanceCrashProb = level.crashProb
		j.cfg.NodeCrashMTBFms = level.mtbfMs
		j.cfg.NodeDownMs = level.downMs
	}
	return j
}

// Cluster runs the fleet experiment over the selected suite.
func Cluster(opt Options) (ClusterResult, error) {
	opt = opt.withDefaults()
	var out ClusterResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	names := namesOf(suite)
	invocs := opt.Measure + opt.Warmup

	var jobs []clusterJob
	for _, p := range clusterFleetPlacers {
		for _, lvl := range clusterFaultLevels {
			for _, n := range clusterNodeCounts {
				jobs = append(jobs, newClusterJob(opt, names, n, p, lvl, invocs))
			}
		}
	}
	sums, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	for i, j := range jobs {
		out.Rows = append(out.Rows, ClusterRow{Nodes: j.cfg.Nodes, Policy: j.placer, FaultLevel: j.level, C: sums[i]})
	}
	return out, nil
}

// Row finds one sweep cell.
func (r ClusterResult) Row(nodes int, policy, level string) (ClusterRow, bool) {
	for _, row := range r.Rows {
		if row.Nodes == nodes && row.Policy == policy && row.FaultLevel == level {
			return row, true
		}
	}
	return ClusterRow{}, false
}

// HeavyAvailabilityPct reports the headline metric: availability of the
// largest swept fleet under the heavy fault level with the baseline fleet
// placer — what the resilience front end salvages when everything is
// failing at once.
func (r ClusterResult) HeavyAvailabilityPct() float64 {
	row, ok := r.Row(clusterNodeCounts[len(clusterNodeCounts)-1], clusterFleetPlacers[0], "heavy")
	if !ok {
		return 0
	}
	return row.C.AvailabilityPct
}

// WastedHedgePct reports hedge overhead at the same sweep point: losing
// hedge copies' cycles as a share of all served work, the compute bill of
// the tail-latency insurance.
func (r ClusterResult) WastedHedgePct() float64 {
	row, ok := r.Row(clusterNodeCounts[len(clusterNodeCounts)-1], clusterFleetPlacers[0], "heavy")
	if !ok {
		return 0
	}
	served := 0.0
	for _, n := range row.C.PerNode {
		served += n.MeanServiceCycles * float64(n.Served)
	}
	return stats.Pct(row.C.WastedHedgeCycles, served)
}

// Table renders the sweep: availability, warmth split and fault toll per
// (policy, fault level, nodes) cell.
func (r ClusterResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Cluster: node count x failure rate x fleet placement (%d cores/node, retry<=%d, hedged)",
			clusterCores, clusterRetryMax),
		"Placer", "Faults", "Nodes", "Avail", "Cold/Luke/Warm", "Lukewarm CPI",
		"p99 latency [cyc]", "Crashes n/i", "Flakes", "Retries", "Hedge waste [cyc]", "Degraded [ms]")
	for _, row := range r.Rows {
		degraded := row.C.TimeInTierMs[1] + row.C.TimeInTierMs[2] + row.C.TimeInTierMs[3]
		t.AddRow(row.Policy, row.FaultLevel, fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.1f%%", row.C.AvailabilityPct),
			fmt.Sprintf("%d/%d/%d", row.C.ColdServed, row.C.LukewarmServed, row.C.WarmServed),
			fmt.Sprintf("%.3f", row.C.LukewarmCPI),
			fmt.Sprintf("%.0f", row.C.P99LatencyCyc),
			fmt.Sprintf("%d/%d", row.C.NodeCrashes, row.C.InstanceCrashes),
			fmt.Sprint(row.C.DispatchFlakes),
			fmt.Sprint(row.C.Retries),
			fmt.Sprintf("%.0f", row.C.WastedHedgeCycles),
			fmt.Sprintf("%.0f", degraded))
	}
	return t
}

// LatencyTable renders the latency ladder per cell — mean through P99,
// retry- and backoff-inflation included — plus the resilience actions that
// produced it.
func (r ClusterResult) LatencyTable() *stats.Table {
	t := stats.NewTable(
		"Cluster: end-to-end latency ladder (retry- and backoff-inflated)",
		"Placer", "Faults", "Nodes", "Mean [cyc]", "p50", "p95", "p99",
		"Exhausted", "Deadline", "Hedges w/r", "Eject/readmit")
	for _, row := range r.Rows {
		t.AddRow(row.Policy, row.FaultLevel, fmt.Sprint(row.Nodes),
			fmt.Sprintf("%.0f", row.C.MeanLatencyCycles),
			fmt.Sprintf("%.0f", row.C.P50LatencyCyc),
			fmt.Sprintf("%.0f", row.C.P95LatencyCyc),
			fmt.Sprintf("%.0f", row.C.P99LatencyCyc),
			fmt.Sprint(row.C.RetriesExhausted),
			fmt.Sprint(row.C.DeadlineFailed),
			fmt.Sprintf("%d/%d", row.C.WastedHedges, row.C.HedgeRescues),
			fmt.Sprintf("%d/%d", row.C.Ejections, row.C.Readmissions))
	}
	return t
}
