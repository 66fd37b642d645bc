package experiments

import (
	"fmt"
	"slices"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/stats"
)

// Output is one experiment run's rendered result.
type Output struct {
	// Notes are lines shown ahead of the tables.
	Notes []string
	// Tables are the experiment's tables in display order.
	Tables []*stats.Table
	// Headline holds the experiment's key reproduced quantities, keyed as
	// the CLI's run report and the root benchmarks record them.
	Headline map[string]float64
}

// Entry is one experiment of the registry: everything the CLI, the golden
// harness, the facade and the root benchmarks need to run and present it.
type Entry struct {
	// Name selects the whole experiment on the command line and labels it
	// in run reports and benchmarks.
	Name string
	// Desc is the one-line description the CLI's usage text lists.
	Desc string
	// Tables are command-line names that select one table each, in
	// Output.Tables order; empty when the experiment is selected whole only.
	Tables []string
	// TolPct is the golden harness's per-cell tolerance band. The simulator
	// is deterministic, so snapshots reproduce exactly today; the band states
	// how much model drift a future change may introduce without refreshing
	// the snapshot.
	TolPct float64
	// Golden names the experiment's golden-harness subtest when it differs
	// from Name; those names predate the registry and are kept stable.
	Golden string
	// Run executes the experiment.
	Run func(Options) (Output, error)
}

// Selects reports whether a command-line argument names this entry (table
// -1: every table) or one of its tables (table: its Output.Tables index).
func (e Entry) Selects(arg string) (table int, ok bool) {
	if arg == e.Name {
		return -1, true
	}
	if i := slices.Index(e.Tables, arg); i >= 0 {
		return i, true
	}
	return -1, false
}

// Registry lists every experiment in presentation order: the paper's
// tables and figures, then the ablations and extensions. Callers must not
// modify the returned entries.
func Registry() []Entry { return registry }

// adapt turns a typed runner and its rendering into an Entry.Run; a failed
// run yields an empty Output.
func adapt[R any](run func(Options) (R, error), render func(R) Output) func(Options) (Output, error) {
	return func(o Options) (Output, error) {
		r, err := run(o)
		if err != nil {
			return Output{}, err
		}
		return render(r), nil
	}
}

// tables is shorthand for an Output carrying only tables.
func tables(ts ...*stats.Table) Output { return Output{Tables: ts} }

// Traffic-level experiments aggregate queueing and placement effects, so
// their golden band is slightly wider than the per-instance figures'.
const (
	tolInstance = 0.5
	tolTraffic  = 1.0
)

var registry = []Entry{
	{
		Name: "table1", Desc: "simulated processor parameters", TolPct: tolInstance,
		Run: func(Options) (Output, error) { return tables(Table1()), nil },
	},
	{
		Name: "table2", Desc: "workload suite", TolPct: tolInstance,
		Run: func(Options) (Output, error) { return tables(Table2()), nil },
	},
	{
		Name: "fig1", Desc: "CPI vs inter-arrival time", TolPct: tolInstance,
		Run: adapt(Fig1, func(r Fig1Result) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{
				"fig1_saturated_norm_cpi_pct": r.Rows[len(r.Rows)-1].NormCPI[r.Functions[0]],
			}
			return out
		}),
	},
	{
		Name: "fig2-5", Desc: "Top-Down characterization and L2/LLC MPKI breakdowns",
		Tables: []string{"fig2", "fig3", "fig4", "fig5a", "fig5b"},
		TolPct: tolInstance, Golden: "characterization",
		Run: adapt(Characterize, func(r CharacterizationResult) Output {
			out := tables(r.Fig2Table(), r.Fig3Table(), r.Fig4Table(), r.Fig5aTable(), r.Fig5bTable())
			out.Headline = map[string]float64{
				"fig2_mean_cpi_uplift_pct":     r.MeanUplift() * 100,
				"fig4_fetch_latency_share_pct": r.Fig4FetchLatencyShare() * 100,
			}
			return out
		}),
	},
	{
		Name: "fig6", Desc: "instruction footprints and commonality",
		Tables: []string{"fig6a", "fig6b"}, TolPct: tolInstance, Golden: "footprints",
		Run: adapt(Footprints, func(r FootprintResult) Output {
			out := tables(r.Fig6aTable(), r.Fig6bTable())
			out.Headline = map[string]float64{
				"fig6_mean_footprint_kb":    r.MeanFootprintKB(),
				"fig6_high_commonality_fns": float64(r.HighCommonalityCount()),
			}
			return out
		}),
	},
	{
		Name: "fig8", Desc: "metadata size vs region size", TolPct: tolInstance,
		Run: adapt(Fig8, func(r Fig8Result) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"fig8_best_region_bytes": float64(r.BestRegionSize())}
			return out
		}),
	},
	{
		Name: "fig9", Desc: "speedup vs metadata budget", TolPct: tolInstance,
		Run: adapt(Fig9, func(r Fig9Result) Output {
			out := tables(r.Table())
			for _, row := range r.Rows {
				if row.BudgetKB == 16 {
					out.Headline = map[string]float64{"fig9_geomean_speedup_16kb_pct": row.SpeedupPct["GEOMEAN"]}
				}
			}
			return out
		}),
	},
	{
		Name: "fig10-12", Desc: "Jukebox performance, coverage and bandwidth",
		Tables: []string{"fig10", "fig11", "fig12"}, TolPct: tolInstance, Golden: "performance",
		Run: adapt(func(o Options) (PerfResult, error) {
			return Performance(o, cpu.SkylakeConfig(), core.DefaultConfig())
		}, func(r PerfResult) Output {
			out := tables(r.Fig10Table(), r.Fig11Table(), r.Fig12Table())
			jb, perfect := r.GeomeanSpeedups()
			// Coverage of the first selected function, as Fig. 11 plots it
			// per function.
			covered, _, _ := r.Rows[0].Coverage()
			out.Headline = map[string]float64{
				"fig10_geomean_speedup_pct":         jb,
				"fig10_perfect_icache_speedup_pct":  perfect,
				"fig11_first_function_coverage_pct": covered * 100,
			}
			return out
		}),
	},
	{
		Name: "fig13", Desc: "comparison with PIF", TolPct: tolInstance,
		Run: adapt(Fig13, func(r Fig13Result) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{
				"fig13_jukebox_speedup_pct":   r.SpeedupPct[CfgJukebox]["GEOMEAN"],
				"fig13_pif_ideal_speedup_pct": r.SpeedupPct[CfgPIFIdeal]["GEOMEAN"],
			}
			return out
		}),
	},
	{
		Name: "table3", Desc: "Skylake vs Broadwell MPKI reductions", TolPct: tolInstance,
		Run: adapt(Table3, func(r Table3Result) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"table3_broadwell_speedup_pct": r.GeomeanSpeedupPct["Broadwell"]}
			return out
		}),
	},
	{
		Name: "crrb", Desc: "CRRB-size sensitivity (Sec. 5.1)", TolPct: tolInstance, Golden: "crrb-ablation",
		Run: adapt(CRRBAblation, func(r CRRBAblationResult) Output { return tables(r.Table()) }),
	},
	{
		Name: "compaction", Desc: "virtual-vs-physical metadata ablation (Sec. 3.3)", TolPct: tolInstance,
		Run: adapt(Compaction, func(r CompactionResult) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"compaction_virtual_coverage_pct": r.Coverage["virtual"] * 100}
			return out
		}),
	},
	{
		Name: "snapshot", Desc: "snapshot/cold-boot replay extension (Sec. 3.4.2)", TolPct: tolInstance,
		Run: adapt(Snapshot, func(r SnapshotResult) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"snapshot_first_invocation_speedup_pct": r.FirstInvocationSpeedupPct}
			return out
		}),
	},
	{
		Name: "dynmeta", Desc: "per-function metadata sizing extension", TolPct: tolInstance, Golden: "dynamic-metadata",
		Run: adapt(DynamicMetadata, func(r DynamicMetadataResult) Output { return tables(r.Table()) }),
	},
	{
		Name: "baselines", Desc: "Jukebox vs next-line and RECAP-style restoration (Sec. 6)", TolPct: tolInstance,
		Run: adapt(Baselines, func(r BaselinesResult) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"baselines_recap_bandwidth_pct": r.BandwidthPct["RECAP"]}
			return out
		}),
	},
	{
		Name: "server", Desc: "system-level Poisson-traffic simulation", TolPct: tolTraffic, Golden: "server-sim",
		Run: adapt(ServerSim, func(r ServerSimResult) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"server_throughput_gain_pct": r.ThroughputGainPct}
			return out
		}),
	},
	{
		Name: "scaling", Desc: "multi-core scaling under saturating traffic", TolPct: tolTraffic,
		Run: adapt(Scaling, func(r ScalingResult) Output {
			out := tables(r.Table())
			out.Headline = map[string]float64{"scaling_4core_gain_pct": r.Rows[len(r.Rows)-1].JukeboxGainPct}
			return out
		}),
	},
	{
		Name: "sched", Desc: "placement and keep-alive policy sweep", TolPct: tolTraffic,
		Run: adapt(Sched, func(r SchedResult) Output {
			out := tables(r.Table(), r.KeepAliveTable(), r.PerFuncTable())
			_, delta := r.BestPolicyCPIDeltaPct()
			out.Headline = map[string]float64{"sched_best_policy_cpi_delta_pct": delta}
			return out
		}),
	},
	{
		Name: "chaos", Desc: "fault-injection sweep with graceful-degradation checks", TolPct: tolTraffic,
		// Any FAIL cell is an error, returned with the full rendered matrix.
		Run: func(o Options) (Output, error) {
			r, err := Chaos(o)
			if err != nil {
				return Output{}, err
			}
			if n := r.Failures(); n > 0 {
				err = fmt.Errorf("chaos: %d of %d cells failed", n, len(r.Cells))
			}
			return tables(r.Table()), err
		},
	},
	{
		Name: "cluster", Desc: "fault-tolerant fleet sweep: nodes x failure rate x placement", TolPct: tolTraffic,
		Run: adapt(Cluster, func(r ClusterResult) Output {
			out := tables(r.Table(), r.LatencyTable())
			out.Headline = map[string]float64{
				"cluster_heavy_availability_pct": r.HeavyAvailabilityPct(),
				"cluster_wasted_hedge_pct":       r.WastedHedgePct(),
			}
			return out
		}),
	},
	{
		Name: "coldstart", Desc: "REAP page-prefetch vs Jukebox vs PIF across start conditions", TolPct: tolTraffic,
		Run: adapt(Coldstart, func(r ColdstartResult) Output {
			out := tables(r.Table(), r.CrossoverTable(), r.StalenessTable())
			out.Headline = map[string]float64{
				"coldstart_reapjb_cold_speedup_pct": r.ColdSpeedupPct(),
				"coldstart_crossover_iat_ms":        r.CrossoverIATms,
			}
			return out
		}),
	},
	{
		Name: "prewarm", Desc: "predictive pre-warm sweep: forecaster x lead x arrival shape", TolPct: tolTraffic,
		Run: adapt(Prewarm, func(r PrewarmResult) Output {
			shape, lead, pct := r.OracleBestPenaltyRemovedPct()
			return Output{
				Notes: []string{fmt.Sprintf("oracle best: %s at lead %g ms removes %.0f%% of the lukewarm CPI penalty",
					shape, lead, pct)},
				Tables: []*stats.Table{r.Table()},
				Headline: map[string]float64{
					"prewarm_oracle_best_penalty_removed_pct": pct,
					"prewarm_oracle_best_lead_ms":             lead,
					"prewarm_bursty_histpeak_wasted_frac":     r.BurstyHistpeakWastedFraction(),
				},
			}
		}),
	},
}
