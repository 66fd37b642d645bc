package lukewarm

import "testing"

// benchOpt is the reduced option set of BenchmarkExperiments: a
// cross-language subset, few measured invocations and eight traced
// footprints, so the whole registry regenerates in minutes; the
// cmd/lukewarm binary runs the full-fidelity versions.
var benchOpt = ExperimentOptions{
	Functions:            []string{"Auth-G", "ProdL-G", "Email-P", "Pay-N", "AES-P"},
	Warmup:               1,
	Measure:              2,
	Seed:                 42,
	FootprintInvocations: 8,
}

// BenchmarkExperiments regenerates every experiment of the registry, one
// sub-benchmark each (DESIGN.md maps them to the paper), and reports each
// headline quantity as a custom metric.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			var out ExperimentOutput
			for i := 0; i < b.N; i++ {
				var err error
				if out, err = e.Run(benchOpt); err != nil {
					b.Fatal(err)
				}
			}
			for k, v := range out.Headline {
				b.ReportMetric(v, k)
			}
		})
	}
}

// BenchmarkExtensionCluster measures the fault-tolerant fleet simulation:
// three nodes behind the retrying/hedging front end with all three fleet
// fault kinds armed.
func BenchmarkExtensionCluster(b *testing.B) {
	ws := make([]Workload, 0, 2)
	for _, name := range []string{"Auth-G", "Email-P"} {
		w, err := FunctionByName(name)
		if err != nil {
			b.Fatal(err)
		}
		ws = append(ws, w)
	}
	tc := DefaultTrafficConfig()
	tc.MeanIATms = 50
	tc.InvocationsPerInstance = 6
	var avail float64
	for i := 0; i < b.N; i++ {
		cfg := FleetConfig{
			Nodes: 3, Workloads: ws, Traffic: tc,
			DeadlineMs: 400, RetryMax: 1, RetryBackoffMs: 2, HedgeDelayMinMs: 0.5,
			EjectAfter: 3, EjectMs: 60,
			Faults:            NewFaultPlan(7, FaultKinds()...),
			InstanceCrashProb: 0.1, DispatchFlakeProb: 0.2,
			NodeCrashMTBFms: 150, NodeDownMs: 40,
		}
		r, err := RunFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := AuditFleetResult(&r); err != nil {
			b.Fatal(err)
		}
		avail = r.Availability() * 100
	}
	b.ReportMetric(avail, "avail%")
}

// BenchmarkSimulationThroughput measures raw simulator speed: instructions
// simulated per wall-clock second for one lukewarm invocation.
func BenchmarkSimulationThroughput(b *testing.B) {
	fn, err := FunctionByName("Auth-G")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(ServerConfig{})
	inst := srv.Deploy(fn)
	var instrs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := srv.RunLukewarm(inst, 1)
		instrs += res.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}
