package main

import (
	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/predict"
	"lukewarm/internal/program"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// fleetFunctions are the six functions deployed on every node, two per
// language.
var fleetFunctions = []string{"Auth-P", "Email-P", "Auth-N", "Pay-N", "Auth-G", "ProdL-G"}

// fleetRound is one round of fleet-chaos: one cluster.Run over a
// production-shaped fleet with every recovery and warm-up mechanism armed.
type fleetRound struct {
	seed   uint64
	invocs int
	cfg    cluster.Config
	res    cluster.Result
	err    error
}

func newFleetRound(seed uint64, sz size) round {
	return &fleetRound{seed: seed, invocs: sz.fleetInvocs}
}

// setup builds the programs and the fleet configuration. The servers
// themselves are built inside cluster.Run, so they are part of the timed run.
func (r *fleetRound) setup() error {
	var ws []workload.Workload
	for _, name := range fleetFunctions {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		ws = append(ws, w)
	}
	jb := core.DefaultConfig()
	rp := reap.DefaultConfig()
	r.cfg = cluster.Config{
		Nodes:     2,
		Workloads: ws,
		Node:      serverless.Config{Cores: 2, Jukebox: &jb, Reap: &rp},
		Traffic: serverless.TrafficConfig{
			MeanIATms:              10,
			Bursty:                 true,
			InvocationsPerInstance: r.invocs,
			KeepAliveMs:            100,
			ColdStartMs:            25,
			AmbientThrash:          true,
			SyncReplay:             true,
			Predict:                &predict.Config{Forecaster: predict.HistogramPeak(0, 0)},
			Seed:                   r.seed,
		},
		DeadlineMs:        500,
		RetryMax:          3,
		RetryBackoffMs:    2,
		HedgeDelayMinMs:   0.3,
		EjectAfter:        3,
		EjectMs:           50,
		Faults:            faults.NewPlan(program.Mix(r.seed, 0xF1EE7), faults.NodeCrash, faults.InstanceCrash, faults.DispatchFlake),
		DispatchFlakeProb: 0.10,
		InstanceCrashProb: 0.05,
		NodeCrashMTBFms:   400,
		NodeDownMs:        60,
		ShipManifests:     true,
	}
	return r.cfg.Validate()
}

func (r *fleetRound) run(tr *tracer, parent int) {
	sp := tr.begin("cluster.Run", parent, 0)
	r.res, r.err = cluster.Run(r.cfg)
	tr.end(sp)
}

// result audits the fleet run. Requests the simulated fleet failed are model
// output; only an error or a broken audit is a benchmark failure.
func (r *fleetRound) result() roundResult {
	out := roundResult{ops: 1, requests: r.res.Offered}
	if r.err != nil || cluster.Audit(&r.res) != nil {
		out.failed = 1
	}
	var cold, migr int
	var syncMs float64
	for _, n := range r.res.PerNode {
		// Every invocation a node executed: served ones, hedge copies
		// included, and ones whose response an instance crash lost.
		out.work += n.Served + n.Failed
		cold += n.ColdStarts
		migr += n.PlacementMigrations
		syncMs += n.SyncReplayMs
	}
	pw := r.res.PrewarmLedger()
	cyclesPerMs := cpu.SkylakeConfig().FreqGHz * 1e6
	out.counts = []count{
		{"predict.prewarm_used_frac", ratio(float64(pw.Used), float64(pw.Scheduled))},
		{"serverless.cold_starts", float64(cold)},
		{"serverless.migrations", float64(migr)},
		{"serverless.sync_replay_ms", syncMs},
		{"cluster.attempts", float64(r.res.Offered + r.res.Retries + r.res.Hedges)},
		{"cluster.availability", r.res.Availability()},
		{"cluster.wasted_hedge_frac", ratio(float64(r.res.WastedHedges), float64(r.res.Hedges))},
		{"cluster.p99_latency_ms", r.res.P99LatencyCycles() / cyclesPerMs},
	}
	out.tables = r.res.String()
	return out
}
