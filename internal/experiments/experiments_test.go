package experiments

import (
	"errors"
	"strings"
	"testing"

	"lukewarm/internal/cfgerr"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/workload"
)

// quick options: a small cross-language subset so each test runs in seconds.
var quickOpt = Options{
	Functions: []string{"Auth-G", "ProdL-G", "Email-P", "Pay-N"},
	Warmup:    1,
	Measure:   2,
	Audit:     true,
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Warmup != 2 || o.Measure != 3 {
		t.Errorf("defaults = %+v", o)
	}
	if o.Engine == nil {
		t.Error("withDefaults left Engine nil")
	}
	o = Options{Warmup: -1}.withDefaults()
	if o.Warmup != 0 {
		t.Errorf("legacy negative no-warmup = %+v", o)
	}
	o = Options{NoWarmup: true}.withDefaults()
	if o.Warmup != 0 {
		t.Errorf("NoWarmup = %+v", o)
	}
	o = Options{NoWarmup: true, Warmup: 5}.withDefaults()
	if o.Warmup != 0 {
		t.Errorf("NoWarmup overrides explicit warmup: %+v", o)
	}
	o = Options{Warmup: 7}.withDefaults()
	if o.Warmup != 7 {
		t.Errorf("explicit warmup = %+v", o)
	}
	all, err := (Options{}).suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 20 {
		t.Errorf("default suite = %d", len(all))
	}
	sub, err := quickOpt.suite()
	if err != nil {
		t.Fatal(err)
	}
	if len(sub) != 4 {
		t.Errorf("subset suite = %d", len(sub))
	}
	if _, err := (Options{Functions: []string{"Nope-X"}}).suite(); err == nil {
		t.Error("unknown function not rejected")
	}
}

func TestFig1ShapeMatchesPaper(t *testing.T) {
	r, err := Fig1(Options{Warmup: 1, Measure: 2, Audit: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, fn := range r.Functions {
		base := r.Rows[0].NormCPI[fn]
		if base != 100 {
			t.Errorf("%s: back-to-back point = %v%%, want 100%%", fn, base)
		}
		sat := r.Rows[4].NormCPI[fn] // 1s
		if sat < 130 || sat > 320 {
			t.Errorf("%s: saturated CPI = %.0f%%, paper band ~150-270%%", fn, sat)
		}
		// Monotone growth up to saturation.
		prev := 0.0
		for i := 0; i <= 4; i++ {
			v := r.Rows[i].NormCPI[fn]
			if v+8 < prev { // small tolerance for measurement noise
				t.Errorf("%s: CPI not monotone at IAT %v: %v after %v",
					fn, r.Rows[i].IATms, v, prev)
			}
			if v > prev {
				prev = v
			}
		}
		// Saturation: 10s within 10% of 1s.
		if r.Rows[5].NormCPI[fn] > sat*1.10 {
			t.Errorf("%s: no saturation: %v%% at 10s vs %v%% at 1s", fn, r.Rows[5].NormCPI[fn], sat)
		}
	}
	if !strings.Contains(r.Table().String(), "Figure 1") {
		t.Error("table rendering broken")
	}
}

func TestCharacterizeMatchesPaperBands(t *testing.T) {
	r, err := Characterize(quickOpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Headline: 31-114% CPI uplift, 70% average. Allow a looser band on the
	// tiny subset.
	up := r.MeanUplift()
	if up < 0.25 || up > 1.2 {
		t.Errorf("mean uplift = %.0f%%, paper: 70%%", up*100)
	}
	for _, row := range r.Rows {
		if row.Interleaved.CPI <= row.Ref.CPI {
			t.Errorf("%s: interleaved not slower", row.Name)
		}
		// Front-end share of interleaved cycles should be the largest
		// stall class (paper: 55% of all cycles are front-end stalls).
		fe := row.Interleaved.Stack.FrontendBound()
		be := row.Interleaved.Stack.Cycles[3+1] // BackendBound
		if fe <= be/2 {
			t.Errorf("%s: frontend %v not dominant vs backend %v", row.Name, fe, be)
		}
	}
	// Fetch latency dominates the extra stalls (paper: 56%).
	if share := r.Fig4FetchLatencyShare(); share < 0.4 || share > 0.85 {
		t.Errorf("fetch-latency share of extra stalls = %.0f%%", share*100)
	}
	// LLC MPKI: ~0 in reference, >5 for instructions interleaved (Fig. 5b).
	for _, row := range r.Rows {
		if row.Ref.LLCMPKIInstr > 1 {
			t.Errorf("%s: reference LLC instr MPKI = %.2f, want ~0", row.Name, row.Ref.LLCMPKIInstr)
		}
		if row.Interleaved.LLCMPKIInstr < 5 {
			t.Errorf("%s: interleaved LLC instr MPKI = %.1f, want >5", row.Name, row.Interleaved.LLCMPKIInstr)
		}
		if row.Interleaved.LLCMPKIInstr < row.Interleaved.LLCMPKIData {
			t.Errorf("%s: LLC misses not instruction-dominated", row.Name)
		}
		// L2 MPKI high in both regimes, instructions above data (Fig. 5a).
		if row.Ref.L2MPKIInstr < row.Ref.L2MPKIData {
			t.Errorf("%s: L2 instr MPKI below data", row.Name)
		}
	}
	for _, tb := range []string{
		r.Fig2Table().String(), r.Fig3Table().String(),
		r.Fig4Table().String(), r.Fig5aTable().String(), r.Fig5bTable().String(),
	} {
		if !strings.Contains(tb, "Figure") {
			t.Error("table rendering broken")
		}
	}
}

func TestFootprintsMatchFig6(t *testing.T) {
	r, err := Footprints(Options{Functions: []string{"Fib-G", "Auth-P", "Email-P"}, FootprintInvocations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if r.Invocations != 6 {
		t.Fatalf("invocations = %d", r.Invocations)
	}
	for _, row := range r.Rows {
		if row.KB.Mean() < 230 || row.KB.Mean() > 820 {
			t.Errorf("%s: footprint %.0fKB outside paper range", row.Name, row.KB.Mean())
		}
		if row.Jaccard.Mean() < 0.7 {
			t.Errorf("%s: commonality %.2f too low", row.Name, row.Jaccard.Mean())
		}
	}
	// Email-P is a designated outlier; Auth-P is not.
	var authP, emailP float64
	for _, row := range r.Rows {
		switch row.Name {
		case "Auth-P":
			authP = row.Jaccard.Mean()
		case "Email-P":
			emailP = row.Jaccard.Mean()
		}
	}
	if emailP >= authP {
		t.Errorf("outlier ordering: Email-P %.3f !< Auth-P %.3f", emailP, authP)
	}
	if !strings.Contains(r.Fig6aTable().String(), "Figure 6a") ||
		!strings.Contains(r.Fig6bTable().String(), "Figure 6b") {
		t.Error("table rendering broken")
	}
	if r.MeanFootprintKB() <= 0 || r.HighCommonalityCount() < 1 {
		t.Error("summary accessors broken")
	}
}

func TestFig8MinimumAtOneKB(t *testing.T) {
	r, err := Fig8(Options{Functions: []string{"Auth-G", "Email-P", "Pay-N"}, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.BestRegionSize(); got != 1024 && got != 2048 {
		t.Errorf("best region size = %d, paper: 1024", got)
	}
	for _, row := range r.Rows {
		kb := float64(row.BytesByRegion[1024]) / 1024
		if kb < 5 || kb > 35 {
			t.Errorf("%s: metadata at 1KB regions = %.1fKB, paper band 9.6-29.5", row.Name, kb)
		}
		// U-shape: extremes larger than the minimum.
		min := row.BytesByRegion[r.BestRegionSize()]
		if row.BytesByRegion[128] <= min || row.BytesByRegion[8192] <= min {
			t.Errorf("%s: no U-shape: 128B=%d min=%d 8KB=%d",
				row.Name, row.BytesByRegion[128], min, row.BytesByRegion[8192])
		}
	}
	if !strings.Contains(r.Table().String(), "Figure 8") {
		t.Error("table rendering broken")
	}
}

func TestCRRBAblationModestSensitivity(t *testing.T) {
	r, err := CRRBAblation(Options{Functions: []string{"Auth-G", "Email-P"}, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.MeanKB) != 3 {
		t.Fatalf("sizes = %v", r.Sizes)
	}
	// Larger CRRBs never need more metadata; sensitivity is modest
	// (paper: "very similar trends").
	if r.MeanKB[2] > r.MeanKB[0] {
		t.Errorf("32-entry CRRB needs more metadata than 8-entry: %v", r.MeanKB)
	}
	if r.MeanKB[0] > r.MeanKB[2]*1.8 {
		t.Errorf("CRRB sensitivity not modest: %v", r.MeanKB)
	}
	if !strings.Contains(r.Table().String(), "CRRB") {
		t.Error("table rendering broken")
	}
}

func TestPerformanceMatchesFig10To12(t *testing.T) {
	r, err := Performance(quickOpt, cpu.SkylakeConfig(), core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jb, pf := r.GeomeanSpeedups()
	if jb < 10 || jb > 30 {
		t.Errorf("Jukebox geomean = %.1f%%, paper: 18.7%%", jb)
	}
	if pf <= jb {
		t.Errorf("perfect I-cache (%.1f%%) not above Jukebox (%.1f%%)", pf, jb)
	}
	if pf > 70 {
		t.Errorf("perfect I-cache %.1f%% implausibly high", pf)
	}
	for _, row := range r.Rows {
		c, u, o := row.Coverage()
		if c < 0.4 || c > 1.05 {
			t.Errorf("%s: coverage %.2f out of range", row.Name, c)
		}
		if c+u < 0.85 || c+u > 1.15 {
			t.Errorf("%s: covered+uncovered = %.2f, want ~1", row.Name, c+u)
		}
		if o > 0.30 {
			t.Errorf("%s: overprediction %.2f, paper max 0.158", row.Name, o)
		}
		ov, mr, mp := row.BandwidthOverhead()
		total := ov + mr + mp
		if total < 0 || total > 0.30 {
			t.Errorf("%s: bandwidth overhead %.2f, paper max 0.23", row.Name, total)
		}
	}
	// Language ordering of coverage: Go above Python (Fig. 11).
	cov := r.MeanCoverageByLang()
	if cov[workload.Go] <= cov[workload.Python] {
		t.Errorf("coverage ordering: Go %.2f !> Python %.2f", cov[workload.Go], cov[workload.Python])
	}
	for _, tb := range []string{r.Fig10Table().String(), r.Fig11Table().String(), r.Fig12Table().String()} {
		if !strings.Contains(tb, "Figure 1") {
			t.Error("table rendering broken")
		}
	}
}

func TestFig9BudgetSweep(t *testing.T) {
	r, err := Fig9(Options{Functions: []string{"Email-P", "Pay-N", "ProdL-G"}, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("budget rows = %d", len(r.Rows))
	}
	g8 := r.Rows[0].SpeedupPct["GEOMEAN"]
	g16 := r.Rows[2].SpeedupPct["GEOMEAN"]
	g32 := r.Rows[3].SpeedupPct["GEOMEAN"]
	if g16 <= g8 {
		t.Errorf("16KB (%.1f%%) not better than 8KB (%.1f%%)", g16, g8)
	}
	// "Little gain with increasing metadata storage beyond 16KB".
	if g32-g16 > g16-g8 {
		t.Errorf("gain did not flatten: 8->16 %+.1f, 16->32 %+.1f", g16-g8, g32-g16)
	}
	if !strings.Contains(r.Table().String(), "Figure 9") {
		t.Error("table rendering broken")
	}
}

func TestFig13Ordering(t *testing.T) {
	r, err := Fig13(Options{Functions: []string{"Email-P", "ProdL-G"}, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	g := func(c PIFConfig) float64 { return r.SpeedupPct[c]["GEOMEAN"] }
	if !(g(CfgJukebox) > g(CfgPIFIdeal) && g(CfgPIFIdeal) > g(CfgPIF)) {
		t.Errorf("ordering broken: JB=%.1f ideal=%.1f PIF=%.1f",
			g(CfgJukebox), g(CfgPIFIdeal), g(CfgPIF))
	}
	if g(CfgPIF) < -1 {
		t.Errorf("PIF clearly slower than baseline: %.1f%%", g(CfgPIF))
	}
	// Combining PIF-ideal with Jukebox neither helps much nor hurts much.
	if diff := g(CfgJBPIFIdeal) - g(CfgJukebox); diff < -4 || diff > 6 {
		t.Errorf("JB+PIF-ideal deviates from JB by %.1f points", diff)
	}
	if !strings.Contains(r.Table().String(), "Figure 13") {
		t.Error("table rendering broken")
	}
}

func TestTable3PlatformComparison(t *testing.T) {
	r, err := Table3(Options{Functions: []string{"Auth-G", "Email-P"}, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	sky := r.ReductionPct["Skylake"]
	bdw := r.ReductionPct["Broadwell"]
	// Jukebox eliminates the vast majority of LLC instruction misses on
	// both platforms (paper: -86% and -91%).
	if sky["LLC"] < 50 || bdw["LLC"] < 50 {
		t.Errorf("LLC reductions too small: sky %.0f%%, bdw %.0f%%", sky["LLC"], bdw["LLC"])
	}
	// The small Broadwell L2 keeps conflicting: its L2 reduction is much
	// smaller than Skylake's (paper: -15% vs -74%).
	if bdw["L2"] >= sky["L2"] {
		t.Errorf("Broadwell L2 reduction %.0f%% not below Skylake's %.0f%%", bdw["L2"], sky["L2"])
	}
	// And the Broadwell speedup does not exceed Skylake's (paper: 12% vs
	// 18.7%; in this model the LLC retains the prefetches the small L2
	// evicts, so the gap is narrower — allow a small tolerance).
	if r.GeomeanSpeedupPct["Broadwell"] > r.GeomeanSpeedupPct["Skylake"]+1 {
		t.Errorf("Broadwell speedup %.1f%% above Skylake %.1f%%",
			r.GeomeanSpeedupPct["Broadwell"], r.GeomeanSpeedupPct["Skylake"])
	}
	if r.GeomeanSpeedupPct["Broadwell"] < 2 {
		t.Errorf("Broadwell speedup %.1f%% should still be tangible", r.GeomeanSpeedupPct["Broadwell"])
	}
	if !strings.Contains(r.Table().String(), "Table 3") {
		t.Error("table rendering broken")
	}
}

func TestCompactionAblation(t *testing.T) {
	r, err := Compaction(Options{Functions: []string{"Auth-G", "Email-P"}, Warmup: 1, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Coverage["virtual"] < 0.4 {
		t.Errorf("virtual coverage after compaction = %.2f", r.Coverage["virtual"])
	}
	if r.Coverage["physical"] > r.Coverage["virtual"]/2 {
		t.Errorf("physical metadata should collapse: %.2f vs %.2f",
			r.Coverage["physical"], r.Coverage["virtual"])
	}
	if r.Speedup["virtual"] <= r.Speedup["physical"] {
		t.Errorf("virtual (%.1f%%) should beat physical (%.1f%%)",
			r.Speedup["virtual"], r.Speedup["physical"])
	}
	if !strings.Contains(r.Table().String(), "Ablation") {
		t.Error("table rendering broken")
	}
}

func TestSnapshotExtension(t *testing.T) {
	r, err := Snapshot(Options{Functions: []string{"Auth-G", "ProdL-G"}, Warmup: 1, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.FirstInvocationSpeedupPct < 3 {
		t.Errorf("snapshot replay speedup = %.1f%%, want clearly positive", r.FirstInvocationSpeedupPct)
	}
	if len(r.PerFunction) != 2 {
		t.Errorf("per-function entries = %d", len(r.PerFunction))
	}
	if !strings.Contains(r.Table().String(), "snapshot") {
		t.Error("table rendering broken")
	}
}

func TestDynamicMetadataExtension(t *testing.T) {
	r, err := DynamicMetadata(Options{Functions: []string{"Auth-G", "ProdL-G", "Email-P"}, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicSpeedupPct < r.FixedSpeedupPct-3 {
		t.Errorf("per-function sizing lost too much speedup: %.1f vs %.1f",
			r.DynamicSpeedupPct, r.FixedSpeedupPct)
	}
	if r.FixedTotalMB <= 0 || r.DynamicTotalMB <= 0 {
		t.Error("metadata totals empty")
	}
	if !strings.Contains(r.Table().String(), "dynamic") {
		t.Error("table rendering broken")
	}
}

func TestBaselinesComparison(t *testing.T) {
	r, err := Baselines(Options{Functions: []string{"Auth-G", "Email-P"}, Warmup: 1, Measure: 2})
	if err != nil {
		t.Fatal(err)
	}
	jb := r.SpeedupPct["Jukebox"]
	nl := r.SpeedupPct["NextLine"]
	rc := r.SpeedupPct["RECAP"]
	if jb <= nl {
		t.Errorf("Jukebox (%.1f%%) should beat NextLine (%.1f%%)", jb, nl)
	}
	// The paper's Sec. 6 verdict is about cost, not raw speedup: whole-LLC
	// restoration can match Jukebox's benefit but needs far more bandwidth
	// and metadata (and physical addressing; see the compaction tests).
	if jb < rc-3 {
		t.Errorf("Jukebox (%.1f%%) should be within a few points of RECAP (%.1f%%)", jb, rc)
	}
	if rc <= 0 {
		t.Errorf("RECAP speedup %.1f%% should be positive", rc)
	}
	if r.BandwidthPct["RECAP"] <= 3*r.BandwidthPct["Jukebox"] {
		t.Errorf("RECAP bandwidth %+.0f%% not clearly above Jukebox's %+.0f%%",
			r.BandwidthPct["RECAP"], r.BandwidthPct["Jukebox"])
	}
	if r.MetadataKB["RECAP"] <= 2*r.MetadataKB["Jukebox"] {
		t.Errorf("RECAP metadata %.0fKB not far above Jukebox's %.0fKB",
			r.MetadataKB["RECAP"], r.MetadataKB["Jukebox"])
	}
	if !strings.Contains(r.Table().String(), "RECAP") {
		t.Error("table rendering broken")
	}
}

func TestServerSim(t *testing.T) {
	// System-level validation needs real co-residency pressure: the full
	// suite, two invocations each.
	r, err := ServerSim(Options{Warmup: 1, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Baseline.Served != 40 || r.Jukebox.Served != 40 {
		t.Fatalf("served %d/%d, want 40/40", r.Baseline.Served, r.Jukebox.Served)
	}
	if r.ThroughputGainPct < 2 {
		t.Errorf("throughput gain %.1f%%, want clearly positive under co-residency", r.ThroughputGainPct)
	}
	if r.Jukebox.CPI.Mean() >= r.Baseline.CPI.Mean() {
		t.Errorf("Jukebox mean CPI %.3f not below baseline %.3f",
			r.Jukebox.CPI.Mean(), r.Baseline.CPI.Mean())
	}
	if !strings.Contains(r.Table().String(), "traffic") {
		t.Error("table rendering broken")
	}
}

func TestScaling(t *testing.T) {
	r, err := Scaling(Options{Warmup: 1, Measure: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.JukeboxGainPct < 1 {
			t.Errorf("%d cores: Jukebox gain %.1f%%, want positive", row.Cores, row.JukeboxGainPct)
		}
		if i > 0 {
			prev := r.Rows[i-1]
			if row.Baseline.P99LatencyCycles() >= prev.Baseline.P99LatencyCycles() {
				t.Errorf("p99 latency did not improve from %d to %d cores", prev.Cores, row.Cores)
			}
			if row.Baseline.BusyFraction >= prev.Baseline.BusyFraction {
				t.Errorf("busy fraction did not drop from %d to %d cores", prev.Cores, row.Cores)
			}
		}
	}
	if !strings.Contains(r.Table().String(), "Multi-core") {
		t.Error("table rendering broken")
	}
}

func TestStaticTables(t *testing.T) {
	if !strings.Contains(Table1().String(), "Table 1") {
		t.Error("Table 1 rendering broken")
	}
	t2 := Table2()
	if t2.NumRows() != 20 {
		t.Errorf("Table 2 rows = %d", t2.NumRows())
	}
}

func TestSuiteByNameRejectsUnknown(t *testing.T) {
	if _, err := suiteByName("Nope-X"); !errors.Is(err, cfgerr.ErrBadConfig) {
		t.Errorf("unknown function: err = %v, want ErrBadConfig", err)
	}
	if w, err := suiteByName("Auth-G"); err != nil || w.Name != "Auth-G" {
		t.Errorf("known function: %v, %v", w.Name, err)
	}
}
