package serverless

import (
	"errors"
	"math"
	"strings"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/workload"
)

// deploySubset deploys a small cross-language subset.
func deploySubset(t *testing.T, s *Server, names ...string) {
	t.Helper()
	for _, n := range names {
		w, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		s.Deploy(w)
	}
}

func smallTraffic() TrafficConfig {
	cfg := DefaultTrafficConfig()
	cfg.InvocationsPerInstance = 3
	cfg.MeanIATms = 50 // keep the simulated span short for tests
	return cfg
}

// mustServe runs ServeTraffic and fails the test on error.
func mustServe(t *testing.T, s *Server, cfg TrafficConfig) TrafficResult {
	t.Helper()
	res, err := s.ServeTraffic(cfg)
	if err != nil {
		t.Fatalf("ServeTraffic: %v", err)
	}
	return res
}

func TestServeTrafficBasics(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G", "ProdL-G", "Email-P")
	res := mustServe(t, s, smallTraffic())
	if res.Served != 9 {
		t.Fatalf("served = %d, want 9", res.Served)
	}
	if res.CPI.N() != 9 || res.LatencyCycles.N() != 9 {
		t.Errorf("summaries incomplete: %d/%d", res.CPI.N(), res.LatencyCycles.N())
	}
	if res.BusyFraction <= 0 || res.BusyFraction > 1 {
		t.Errorf("busy fraction = %v", res.BusyFraction)
	}
	if res.SimulatedMs <= 0 {
		t.Errorf("simulated span = %v", res.SimulatedMs)
	}
	if res.P99LatencyCycles() < res.LatencyCycles.Mean() {
		t.Errorf("p99 %.0f below mean %.0f", res.P99LatencyCycles(), res.LatencyCycles.Mean())
	}
	if !strings.Contains(res.String(), "served 9 of 9 offered") {
		t.Errorf("summary rendering: %s", res.String())
	}
}

func TestServeTrafficDeterministic(t *testing.T) {
	run := func() float64 {
		s := New(Config{})
		deploySubset(t, s, "Auth-G", "Email-P")
		res := mustServe(t, s, smallTraffic())
		return res.CPI.Mean()
	}
	if run() != run() {
		t.Error("traffic run not deterministic")
	}
}

func TestCoResidencyMakesInvocationsLukewarm(t *testing.T) {
	// A lone instance under traffic stays warm; the same instance among
	// many co-residents runs lukewarm — the paper's core observation,
	// reproduced with natural interleaving rather than flushes.
	w, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallTraffic()
	cfg.InvocationsPerInstance = 4

	alone := New(Config{})
	alone.Deploy(w)
	aloneRes := mustServe(t, alone, cfg)

	crowded := New(Config{})
	crowded.Deploy(w)
	deploySubset(t, crowded, "Email-P", "Pay-N", "Auth-P", "Geo-G", "Prof-G", "Curr-N", "RecO-P")
	crowdedRes := mustServe(t, crowded, cfg)

	if crowdedRes.CPI.Mean() <= aloneRes.CPI.Mean()*1.15 {
		t.Errorf("co-residency did not degrade CPI: %.3f vs alone %.3f",
			crowdedRes.CPI.Mean(), aloneRes.CPI.Mean())
	}
}

func TestJukeboxHelpsUnderRealTraffic(t *testing.T) {
	// Co-residency must exceed the LLC for the lukewarm effect to bite:
	// with only a handful of instances the 8 MB LLC retains every footprint
	// and Jukebox has little left to prefetch. Deploy the whole suite
	// (~9 MB of code plus data) — still far below the thousands of
	// instances on a production host.
	run := func(jb bool) float64 {
		var cfg Config
		if jb {
			j := core.DefaultConfig()
			cfg.Jukebox = &j
		}
		s := New(cfg)
		for _, w := range workload.Suite() {
			s.Deploy(w)
		}
		tc := smallTraffic()
		tc.InvocationsPerInstance = 3
		res := mustServe(t, s, tc)
		return res.ServiceCycles.Sum()
	}
	base, withJB := run(false), run(true)
	speedup := base/withJB - 1
	if speedup < 0.04 {
		t.Errorf("Jukebox speedup under traffic = %.1f%%, want clearly positive", speedup*100)
	}
}

func TestKeepAliveColdStarts(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	cfg := smallTraffic()
	cfg.MeanIATms = 100
	cfg.Poisson = false
	cfg.KeepAliveMs = 10 // evict almost immediately
	cfg.InvocationsPerInstance = 4
	res := mustServe(t, s, cfg)
	if res.ColdStarts == 0 {
		t.Error("tiny keep-alive produced no cold starts")
	}
	// Latency includes the boot cost.
	bootCycles := cfg.ColdStartMs * 2.6e6
	if res.LatencyCycles.Max() < bootCycles {
		t.Errorf("max latency %.0f below a single cold start %.0f", res.LatencyCycles.Max(), bootCycles)
	}
}

func TestHeavyTailTraffic(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G", "Email-P")
	cfg := smallTraffic()
	cfg.HeavyTail = true
	cfg.InvocationsPerInstance = 5
	res := mustServe(t, s, cfg)
	if res.Served != 10 {
		t.Fatalf("served %d", res.Served)
	}
	// Burstiness shows up as higher latency variance than fixed spacing.
	sFixed := New(Config{})
	deploySubset(t, sFixed, "Auth-G", "Email-P")
	cfgF := cfg
	cfgF.HeavyTail = false
	cfgF.Poisson = false
	resF := mustServe(t, sFixed, cfgF)
	if res.LatencyCycles.StdDev() <= resF.LatencyCycles.StdDev() {
		t.Errorf("heavy-tail latency stddev %.0f not above fixed %.0f",
			res.LatencyCycles.StdDev(), resF.LatencyCycles.StdDev())
	}
}

func TestServeTrafficRejectsBadConfig(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	for name, run := range map[string]func() (TrafficResult, error){
		"zero IAT": func() (TrafficResult, error) {
			return s.ServeTraffic(TrafficConfig{MeanIATms: 0, InvocationsPerInstance: 1})
		},
		"zero budget": func() (TrafficResult, error) {
			return s.ServeTraffic(TrafficConfig{MeanIATms: 10, InvocationsPerInstance: 0})
		},
		"no instances": func() (TrafficResult, error) { return New(Config{}).ServeTraffic(DefaultTrafficConfig()) },
	} {
		if _, err := run(); err == nil {
			t.Errorf("%s: expected error", name)
		} else if !errors.Is(err, cfgerr.ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", name, err)
		}
	}
}

func TestServeTrafficEdgeCases(t *testing.T) {
	// IAT far above keep-alive: every re-invocation is a cold start.
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	cfg := DefaultTrafficConfig()
	cfg.Poisson = false
	cfg.MeanIATms = 500
	cfg.KeepAliveMs = 5
	cfg.InvocationsPerInstance = 4
	res := mustServe(t, s, cfg)
	if res.ColdStarts != 3 {
		t.Errorf("IAT >> keep-alive: cold starts = %d, want 3 (every invocation after the first)", res.ColdStarts)
	}

	// Single-invocation budget: exactly one served, no cold starts.
	s1 := New(Config{})
	deploySubset(t, s1, "Auth-G")
	c1 := DefaultTrafficConfig()
	c1.InvocationsPerInstance = 1
	c1.KeepAliveMs = 1
	r1 := mustServe(t, s1, c1)
	if r1.Served != 1 || r1.ColdStarts != 0 || r1.Shed != 0 {
		t.Errorf("single budget: served %d, cold %d, shed %d", r1.Served, r1.ColdStarts, r1.Shed)
	}
}

func TestServeTrafficShedsUnderOverload(t *testing.T) {
	// Saturating arrivals (IAT far below service time) with a tight queue
	// bound must shed load with accounting, not grow the heap unboundedly.
	s := New(Config{})
	deploySubset(t, s, "Auth-G", "Email-P", "Pay-N", "ProdL-G")
	cfg := DefaultTrafficConfig()
	cfg.MeanIATms = 0.05
	cfg.InvocationsPerInstance = 6
	cfg.MaxQueue = 2
	res := mustServe(t, s, cfg)
	if res.Shed == 0 {
		t.Fatal("saturating traffic with MaxQueue=2 shed nothing")
	}
	if res.Served+res.Shed != 4*6 {
		t.Errorf("served %d + shed %d != offered %d", res.Served, res.Shed, 4*6)
	}
	if !strings.Contains(res.String(), "shed") {
		t.Errorf("summary does not report shedding: %s", res.String())
	}
	// ShedRate is a fraction of everything offered, failed invocations
	// included (a fleet node's result has Failed > 0; ServeTraffic never
	// fails one).
	failed := res
	failed.Failed = 6
	failed.Offered = res.Served + res.Shed + failed.Failed
	want := float64(res.Shed) / float64(failed.Offered)
	if got := failed.ShedRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("ShedRate with %d failed = %g, want shed/offered = %g", failed.Failed, got, want)
	}
	if got := failed.Summary().ShedRate(); math.Abs(got-want) > 1e-12 {
		t.Errorf("TrafficSummary.ShedRate with %d failed = %g, want %g", failed.Failed, got, want)
	}

	// Deadline shedding: any invocation waiting longer than ShedAfterMs is
	// dropped at dispatch.
	s2 := New(Config{})
	deploySubset(t, s2, "Auth-G", "Email-P", "Pay-N", "ProdL-G")
	cfg2 := DefaultTrafficConfig()
	cfg2.MeanIATms = 0.05
	cfg2.InvocationsPerInstance = 6
	cfg2.ShedAfterMs = 0.5
	res2 := mustServe(t, s2, cfg2)
	if res2.Shed == 0 {
		t.Error("deadline shedding dropped nothing under saturation")
	}
}

func TestServeTrafficShedDeterminism(t *testing.T) {
	run := func() TrafficResult {
		s := New(Config{})
		deploySubset(t, s, "Auth-G", "Email-P")
		cfg := DefaultTrafficConfig()
		cfg.MeanIATms = 0.1
		cfg.InvocationsPerInstance = 5
		cfg.MaxQueue = 1
		return mustServe(t, s, cfg)
	}
	a, b := run(), run()
	if a.String() != b.String() || a.Shed != b.Shed {
		t.Errorf("shedding run not deterministic:\n%s\n%s", a.String(), b.String())
	}
}

func TestNoKeepAlive(t *testing.T) {
	// NoKeepAlive must behave like the deprecated KeepAliveMs=0 sentinel:
	// instances stay resident across gaps far beyond any provider window.
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	cfg := DefaultTrafficConfig()
	cfg.Poisson = false
	cfg.MeanIATms = 5000
	cfg.NoKeepAlive = true
	cfg.InvocationsPerInstance = 4
	res := mustServe(t, s, cfg)
	if res.ColdStarts != 0 {
		t.Errorf("NoKeepAlive cold-started %d times", res.ColdStarts)
	}
	if res.ResidentMs <= 0 {
		t.Error("NoKeepAlive run accounted no resident time")
	}

	// Contradicting it with a positive timeout is a configuration error.
	bad := DefaultTrafficConfig()
	bad.NoKeepAlive = true
	bad.KeepAliveMs = 100
	if err := bad.Validate(); err == nil {
		t.Error("NoKeepAlive + KeepAliveMs accepted")
	} else if !errors.Is(err, cfgerr.ErrBadConfig) {
		t.Errorf("error %v does not wrap ErrBadConfig", err)
	}
	if err := (TrafficConfig{MeanIATms: 10, InvocationsPerInstance: 1, DiurnalPeriodMs: -1}).Validate(); err == nil {
		t.Error("negative DiurnalPeriodMs accepted")
	}
}

func TestPerFunctionBreakdown(t *testing.T) {
	s := New(Config{})
	deploySubset(t, s, "Auth-G", "Email-P")
	cfg := smallTraffic()
	cfg.Poisson = false
	cfg.MeanIATms = 100
	cfg.KeepAliveMs = 10
	cfg.InvocationsPerInstance = 3
	res := mustServe(t, s, cfg)
	if len(res.PerFunction) != 2 {
		t.Fatalf("per-function rows = %d, want 2", len(res.PerFunction))
	}
	var served, cold int
	for _, f := range res.PerFunction {
		served += f.Served
		cold += f.ColdStarts
		if f.Served > 0 && f.MeanCPI() <= 0 {
			t.Errorf("%s: served %d with mean CPI %g", f.Name, f.Served, f.MeanCPI())
		}
	}
	if served != res.Served || cold != res.ColdStarts {
		t.Errorf("per-function sums %d/%d != fleet %d/%d", served, cold, res.Served, res.ColdStarts)
	}
	if res.ColdStarts == 0 {
		t.Fatal("test setup produced no cold starts")
	}
	if out := res.String(); !strings.Contains(out, "by function") || !strings.Contains(out, "Auth-G") {
		t.Errorf("summary lacks per-function breakdown: %s", out)
	}
}

func TestDiurnalTrafficWiring(t *testing.T) {
	// Diurnal takes precedence and produces gaps inside the designed band.
	s := New(Config{})
	deploySubset(t, s, "Auth-G")
	cfg := DefaultTrafficConfig()
	cfg.Diurnal = true
	cfg.MeanIATms = 50
	cfg.InvocationsPerInstance = 8
	res := mustServe(t, s, cfg)
	if res.Served != 8 {
		t.Fatalf("served %d", res.Served)
	}
	// A ±30% rate swing keeps the span within [n*min_gap, n*max_gap].
	if res.SimulatedMs < 7*50/1.4 || res.SimulatedMs > 8*50*1.6 {
		t.Errorf("diurnal span %.0f ms outside plausible band", res.SimulatedMs)
	}
}
