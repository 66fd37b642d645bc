package experiments

import (
	"fmt"

	"lukewarm/internal/baselines"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/pif"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
)

// BaselinesResult backs the Sec. 6 related-work comparison: Jukebox against
// a next-line instruction prefetcher and a RECAP-style whole-LLC context
// restoration scheme.
type BaselinesResult struct {
	// SpeedupPct maps configuration -> geomean speedup over the lukewarm
	// baseline.
	SpeedupPct map[string]float64
	// BandwidthPct maps configuration -> mean DRAM traffic increase over
	// the baseline run.
	BandwidthPct map[string]float64
	// MetadataKB maps configuration -> mean per-instance metadata cost.
	MetadataKB map[string]float64
}

// baselineConfigs names the compared schemes, in presentation order.
var baselineConfigs = []string{"NextLine", "RECAP", "Jukebox"}

// comparatorJob is a standard cell with comparator prefetchers attached to
// the core: a next-line prefetcher of degree nextLine, a RECAP-style
// restorer and/or PIF (Baselines, Fig13). MetaBytes reports the
// per-instance metadata cost of RECAP or, failing that, of Jukebox.
type comparatorJob struct {
	runner.Cell
	name     string
	nextLine int
	recap    *baselines.RecapConfig
	pif      *pif.Config
}

func (j comparatorJob) Label() string { return j.Workload + "/" + j.name }

func (j comparatorJob) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	if j.nextLine > 0 {
		srv.AttachCorePrefetcher(baselines.NewNextLineI(srv.Core.Hier, j.nextLine))
	}
	var rc *baselines.Recap
	if j.recap != nil {
		rc = baselines.NewRecap(*j.recap, srv.Core.Hier)
		srv.AttachCorePrefetcher(rc)
	}
	if j.pif != nil {
		srv.AttachCorePrefetcher(pif.New(*j.pif, srv.Core.Hier))
	}
	m, err := runner.MeasureInstance(srv, inst, j.Mode, j.Warmup, j.Measure, j.Audit)
	switch {
	case rc != nil:
		m.MetaBytes = rc.Stats.LastMetadataBytes
	case inst.Jukebox != nil:
		m.MetaBytes = inst.Jukebox.MetadataFootprintBytes()
	}
	return m, err
}

// baselineJob describes one scheme of the comparison on workload w.
func baselineJob(opt Options, w, scheme string) comparatorJob {
	j := comparatorJob{Cell: opt.cell(w, cpu.SkylakeConfig(), nil, false, lukewarm), name: "baseline-" + scheme}
	switch scheme {
	case "NextLine":
		j.nextLine = 1
	case "RECAP":
		rc := baselines.DefaultRecapConfig()
		j.recap = &rc
	case "Jukebox":
		jb := core.DefaultConfig()
		j.Jukebox = &jb
	}
	return j
}

// Baselines measures the three schemes across the selected suite on the
// Skylake-like platform.
func Baselines(opt Options) (BaselinesResult, error) {
	opt = opt.withDefaults()
	out := BaselinesResult{
		SpeedupPct:   map[string]float64{},
		BandwidthPct: map[string]float64{},
		MetadataKB:   map[string]float64{},
	}
	type acc struct {
		speed []float64
		bw    stats.Summary
		meta  stats.Summary
	}
	accs := map[string]*acc{}
	for _, cfg := range baselineConfigs {
		accs[cfg] = &acc{}
	}

	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	stride := 1 + len(baselineConfigs)
	var jobs []runner.Job[measured]
	for _, w := range suite {
		jobs = append(jobs, opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm))
		for _, cfg := range baselineConfigs {
			jobs = append(jobs, baselineJob(opt, w.Name, cfg))
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	for wi := range suite {
		base := ms[stride*wi]
		// Sum in the integer domain: float accumulation over a map would
		// round differently run to run with iteration order.
		var baseBytes uint64
		for _, b := range base.DRAM {
			baseBytes += b
		}
		for ci, cfg := range baselineConfigs {
			m := ms[stride*wi+1+ci]
			a := accs[cfg]
			a.speed = append(a.speed, 1+stats.SpeedupPct(normCycles(base), normCycles(m))/100)
			var bytes uint64
			for _, b := range m.DRAM {
				bytes += b
			}
			scale := float64(base.Instrs) / float64(m.Instrs)
			a.bw.Add(stats.Pct(float64(bytes)*scale-float64(baseBytes), float64(baseBytes)))
			a.meta.Add(float64(m.MetaBytes) / 1024)
		}
	}
	for _, cfg := range baselineConfigs {
		a := accs[cfg]
		out.SpeedupPct[cfg] = (stats.GeoMean(a.speed) - 1) * 100
		out.BandwidthPct[cfg] = a.bw.Mean()
		out.MetadataKB[cfg] = a.meta.Mean()
	}
	return out, nil
}

// Table renders the comparison.
func (r BaselinesResult) Table() *stats.Table {
	t := stats.NewTable("Related-work baselines vs Jukebox (lukewarm, Skylake-like)",
		"Scheme", "Geomean speedup", "DRAM traffic increase", "Metadata per instance")
	for _, cfg := range baselineConfigs {
		meta := "-"
		if r.MetadataKB[cfg] > 0 {
			meta = fmt.Sprintf("%.0f KB", r.MetadataKB[cfg])
		}
		t.AddRow(cfg,
			fmt.Sprintf("%.1f%%", r.SpeedupPct[cfg]),
			fmt.Sprintf("%+.0f%%", r.BandwidthPct[cfg]),
			meta)
	}
	return t
}
