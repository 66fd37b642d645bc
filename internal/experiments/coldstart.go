package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/pif"
	"lukewarm/internal/reap"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// ColdstartMech names one warm-up mechanism in the cold-start comparator.
type ColdstartMech string

// The compared mechanisms. REAP restores the recorded page working set into
// the LLC and TLBs from a manifest that survives eviction; Jukebox replays
// instruction regions into the L2 from metadata that dies with the
// instance's memory; PIF is the record/replay comparator prefetcher.
const (
	MechNone   ColdstartMech = "none"
	MechREAP   ColdstartMech = "REAP"
	MechJB     ColdstartMech = "JB"
	MechPIF    ColdstartMech = "PIF"
	MechREAPJB ColdstartMech = "REAP+JB"
)

// coldstartMechs is the sweep order.
var coldstartMechs = []ColdstartMech{MechNone, MechREAP, MechJB, MechPIF, MechREAPJB}

// coldstartBand is one start-condition band of the sweep: a full eviction
// (cold) or an idle inter-arrival gap (lukewarm).
type coldstartBand struct {
	name  string
	cold  bool
	iatMs float64
}

// coldstartBands spans the paper's regimes: eviction at one end, the
// lukewarm IAT band (tens to hundreds of milliseconds, Sec. 2.1) at the
// other.
var coldstartBands = []coldstartBand{
	{name: "cold", cold: true},
	{name: "iat8ms", iatMs: 8},
	{name: "iat64ms", iatMs: 64},
	{name: "iat512ms", iatMs: 512},
}

// coldstartStaleAges is the manifest-age axis of the staleness sweep.
var coldstartStaleAges = []int{1, 2, 4, 8}

// coldstartStaleSlideKB is the allocator drift applied to the staleness
// sweep's workloads (workload.WithChurnSlide): the canonical two-generation
// churn flips between exactly two states, so a gradual slide is what turns
// manifest age into a monotone axis.
const coldstartStaleSlideKB = 8

// ColdstartResult backs the cold-start comparator: mechanism x band x
// language-representative sweep, plus the manifest-staleness sweep.
type ColdstartResult struct {
	Mechs     []ColdstartMech
	Bands     []string
	Functions []string
	// SpeedupPct[band][mech] is the suite-geomean speedup over MechNone
	// within the band.
	SpeedupPct map[string]map[ColdstartMech]float64
	// FirstInvMCycles[band][mech] is the geomean first-invocation latency in
	// megacycles — the start latency a client observes.
	FirstInvMCycles map[string]map[ColdstartMech]float64
	// PrefetchedKB and DemandedKB [band][mech] are mean per-function DRAM
	// bytes moved by prefetch (REAP restore + Jukebox replay + PIF) and by
	// demand misses over the measurement window, in KB.
	PrefetchedKB map[string]map[ColdstartMech]float64
	DemandedKB   map[string]map[ColdstartMech]float64
	// WastedPct[band][mech] is the wasted-prefetch fraction of the REAP
	// restores (restored pages never touched), in percent.
	WastedPct map[string]map[ColdstartMech]float64
	// Winner[band] is the mechanism with the best geomean cycles in the band.
	Winner map[string]ColdstartMech
	// CrossoverIATms is the smallest swept IAT at which Jukebox alone beats
	// REAP alone (REAP owns the cold end, Jukebox the lukewarm band); -1 if
	// Jukebox never wins.
	CrossoverIATms float64
	// Staleness is the manifest-age sweep on drifting-allocator variants.
	Staleness []StalenessRow
}

// StalenessRow is one age point of the staleness sweep: a manifest frozen at
// invocation 0 restores before invocation Age.
type StalenessRow struct {
	Age int
	// WastedPct is the mean wasted-prefetch fraction across functions, in
	// percent.
	WastedPct float64
}

// coldstartJob is one (function, mechanism, band) point: warm up and record
// lukewarm, then measure invocations that each start from the band's
// condition — eviction plus a full flush (cold: pages gone, Jukebox
// metadata gone, REAP manifest survives) or an idle gap (lukewarm: partial
// thrash, delta restore). The mechanism's Jukebox and REAP configs ride on
// the cell, PIF's on the job.
type coldstartJob struct {
	runner.Cell
	mech ColdstartMech
	band coldstartBand
	pif  *pif.Config
}

func (j coldstartJob) Label() string {
	return fmt.Sprintf("%s/coldstart-%s-%s", j.Workload, j.mech, j.band.name)
}

func (j coldstartJob) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	if j.pif != nil {
		srv.AttachCorePrefetcher(pif.New(*j.pif, srv.Core.Hier))
	}
	srv.RunLukewarm(inst, j.Warmup) // functional warm-up records manifest + metadata
	return runner.MeasureWindow(srv, inst, j.Measure, func() cpu.RunResult {
		if j.band.cold {
			inst.Evict()
			srv.FlushMicroarch()
		} else {
			srv.AdvanceIAT(j.band.iatMs)
		}
		return srv.Invoke(inst)
	}, j.Audit)
}

// coldstartPoint describes one (function, mechanism, band) point.
func coldstartPoint(opt Options, w string, m ColdstartMech, b coldstartBand) coldstartJob {
	j := coldstartJob{Cell: opt.cell(w, cpu.SkylakeConfig(), nil, false, lukewarm), mech: m, band: b}
	if m == MechJB || m == MechREAPJB {
		jb := core.DefaultConfig()
		j.Jukebox = &jb
	}
	if m == MechREAP || m == MechREAPJB {
		rc := reap.DefaultConfig()
		j.Reap = &rc
	}
	if m == MechPIF {
		pc := pif.DefaultConfig()
		j.pif = &pc
	}
	return j
}

// staleJob is one staleness point: freeze the manifest after the first
// (recorded) invocation of a workload whose allocator slides slideKB per
// invocation, age it for age-1 lukewarm invocations, and measure the
// restore before invocation age.
type staleJob struct {
	runner.Cell
	age, slideKB int
}

func (j staleJob) Label() string { return fmt.Sprintf("%s/coldstart-stale-%d", j.Workload, j.age) }

func (j staleJob) Run() (measured, error) {
	w, err := suiteByName(j.Workload)
	if err != nil {
		return measured{}, err
	}
	srv := serverless.New(serverless.Config{CPU: j.CPU, Reap: j.Reap})
	inst := srv.Deploy(workload.WithChurnSlide(w, j.slideKB))
	srv.RunLukewarm(inst, 1) // record invocation 0, then freeze
	inst.Reap.SetRecordEnabled(false)
	srv.RunLukewarm(inst, j.age-1)
	inst.Reap.ResetStats()
	res := srv.RunLukewarm(inst, 1)
	if j.Audit {
		if err := auditInvocation(inst, res); err != nil {
			return measured{}, err
		}
	}
	return measured{Instrs: res.Instrs, Cycles: res.Cycles, FirstInvCycles: res.Cycles, Reap: inst.Reap.Stats}, nil
}

// Coldstart runs the cold-start comparator (see DESIGN.md Sec. 11): REAP's
// page-granular record/prefetch against Jukebox, PIF and the combined stack,
// across start-condition bands and the three language representatives, plus
// the manifest-staleness sweep.
func Coldstart(opt Options) (ColdstartResult, error) {
	opt = opt.withDefaults()
	fns := opt.Functions
	if len(fns) == 0 {
		fns = workload.Representatives()
	}
	out := ColdstartResult{
		Mechs:           coldstartMechs,
		Functions:       fns,
		SpeedupPct:      map[string]map[ColdstartMech]float64{},
		FirstInvMCycles: map[string]map[ColdstartMech]float64{},
		PrefetchedKB:    map[string]map[ColdstartMech]float64{},
		DemandedKB:      map[string]map[ColdstartMech]float64{},
		WastedPct:       map[string]map[ColdstartMech]float64{},
		Winner:          map[string]ColdstartMech{},
		CrossoverIATms:  -1,
	}
	for _, b := range coldstartBands {
		out.Bands = append(out.Bands, b.name)
	}
	var jobs []runner.Job[measured]
	for _, b := range coldstartBands {
		for _, m := range coldstartMechs {
			for _, fn := range fns {
				jobs = append(jobs, coldstartPoint(opt, fn, m, b))
			}
		}
	}
	staleStart := len(jobs)
	for _, age := range coldstartStaleAges {
		for _, fn := range fns {
			rc := reap.DefaultConfig()
			c := runner.Cell{Workload: fn, CPU: cpu.SkylakeConfig(), Reap: &rc, Audit: opt.Audit}
			jobs = append(jobs, staleJob{c, age, coldstartStaleSlideKB})
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}

	geoCycles := map[string]map[ColdstartMech]float64{}
	idx := 0
	for _, b := range coldstartBands {
		for _, m := range coldstartMechs {
			var cyc, first, pref, dem, waste []float64
			for range fns {
				mm := ms[idx]
				idx++
				cyc = append(cyc, normCycles(mm))
				first = append(first, float64(mm.FirstInvCycles)/1e6)
				pref = append(pref, float64(mm.DRAM[mem.TrafficPrefetch])/1024)
				dem = append(dem, float64(mm.DRAM[mem.TrafficDemand])/1024)
				waste = append(waste, mm.Reap.WastedFraction()*100)
			}
			if geoCycles[b.name] == nil {
				geoCycles[b.name] = map[ColdstartMech]float64{}
				out.FirstInvMCycles[b.name] = map[ColdstartMech]float64{}
				out.PrefetchedKB[b.name] = map[ColdstartMech]float64{}
				out.DemandedKB[b.name] = map[ColdstartMech]float64{}
				out.WastedPct[b.name] = map[ColdstartMech]float64{}
			}
			geoCycles[b.name][m] = stats.GeoMean(cyc)
			out.FirstInvMCycles[b.name][m] = stats.GeoMean(first)
			out.PrefetchedKB[b.name][m] = stats.Mean(pref)
			out.DemandedKB[b.name][m] = stats.Mean(dem)
			out.WastedPct[b.name][m] = stats.Mean(waste)
		}
	}
	for _, b := range coldstartBands {
		out.SpeedupPct[b.name] = map[ColdstartMech]float64{}
		base := geoCycles[b.name][MechNone]
		best := MechNone
		for _, m := range coldstartMechs {
			out.SpeedupPct[b.name][m] = stats.SpeedupPct(base, geoCycles[b.name][m])
			if geoCycles[b.name][m] < geoCycles[b.name][best] {
				best = m
			}
		}
		out.Winner[b.name] = best
		if !b.cold && out.CrossoverIATms < 0 &&
			geoCycles[b.name][MechJB] < geoCycles[b.name][MechREAP] {
			out.CrossoverIATms = b.iatMs
		}
	}
	for ai, age := range coldstartStaleAges {
		var waste []float64
		for fi := range fns {
			waste = append(waste, ms[staleStart+ai*len(fns)+fi].Reap.WastedFraction()*100)
		}
		out.Staleness = append(out.Staleness, StalenessRow{Age: age, WastedPct: stats.Mean(waste)})
	}
	return out, nil
}

// ColdSpeedupPct reports the combined REAP+Jukebox stack's cold-band geomean
// speedup — the comparator's headline metric.
func (r ColdstartResult) ColdSpeedupPct() float64 { return r.SpeedupPct["cold"][MechREAPJB] }

// Table renders the band x mechanism sweep.
func (r ColdstartResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Cold-start comparator: geomean over %s", strings.Join(r.Functions, ", ")),
		"Band", "Mechanism", "Speedup", "FirstInv [Mcyc]", "Prefetched [KB]", "Demanded [KB]", "REAP waste")
	for _, b := range r.Bands {
		for _, m := range r.Mechs {
			waste := "-"
			if m == MechREAP || m == MechREAPJB {
				waste = fmt.Sprintf("%.1f%%", r.WastedPct[b][m])
			}
			t.AddRow(b, string(m),
				fmt.Sprintf("%.1f%%", r.SpeedupPct[b][m]),
				fmt.Sprintf("%.2f", r.FirstInvMCycles[b][m]),
				fmt.Sprintf("%.0f", r.PrefetchedKB[b][m]),
				fmt.Sprintf("%.0f", r.DemandedKB[b][m]),
				waste)
		}
	}
	return t
}

// CrossoverTable renders the per-band winner and the REAP/Jukebox crossover.
func (r ColdstartResult) CrossoverTable() *stats.Table {
	t := stats.NewTable("Cold-start crossover: best mechanism per band", "Band", "Winner", "Speedup")
	for _, b := range r.Bands {
		w := r.Winner[b]
		t.AddRow(b, string(w), fmt.Sprintf("%.1f%%", r.SpeedupPct[b][w]))
	}
	if r.CrossoverIATms >= 0 {
		t.AddRow("crossover", string(MechJB), fmt.Sprintf("JB>REAP from IAT %.0f ms", r.CrossoverIATms))
	} else {
		t.AddRow("crossover", string(MechREAP), "JB never beats REAP")
	}
	return t
}

// StalenessTable renders the manifest-age sweep.
func (r ColdstartResult) StalenessTable() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("REAP manifest staleness (frozen manifest, %d KB/invocation allocator drift)", coldstartStaleSlideKB),
		"Manifest age [invocations]", "Wasted prefetch")
	for _, row := range r.Staleness {
		t.AddRow(strconv.Itoa(row.Age), fmt.Sprintf("%.1f%%", row.WastedPct))
	}
	return t
}
