package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/pif"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// PIFConfig names one Fig. 13 configuration.
type PIFConfig string

// Fig. 13 configurations.
const (
	CfgBaseline   PIFConfig = "Baseline"
	CfgPIF        PIFConfig = "PIF"
	CfgPIFIdeal   PIFConfig = "PIF-ideal"
	CfgJukebox    PIFConfig = "JB"
	CfgJBPIFIdeal PIFConfig = "JB+PIF-ideal"
)

// Fig13Result backs the state-of-the-art comparison (Sec. 5.5).
type Fig13Result struct {
	Configs   []PIFConfig
	Functions []string
	// SpeedupPct[cfg][fn] is the speedup over baseline; fn "GEOMEAN" is the
	// suite geomean.
	SpeedupPct map[PIFConfig]map[string]float64
}

// pifJob describes one workload under one Fig. 13 configuration. Baseline
// and plain-Jukebox configurations are standard cells — they hit the same
// cache entries as Fig. 10's baseline and Jukebox measurements — while the
// PIF-attaching configurations are comparator jobs.
func pifJob(opt Options, w string, cfg PIFConfig) runner.Job[measured] {
	var jb *core.Config
	if cfg == CfgJukebox || cfg == CfgJBPIFIdeal {
		c := core.DefaultConfig()
		jb = &c
	}
	c := opt.cell(w, cpu.SkylakeConfig(), jb, false, lukewarm)
	if cfg == CfgBaseline || cfg == CfgJukebox {
		return c
	}
	pc := pif.IdealConfig()
	if cfg == CfgPIF {
		pc = pif.DefaultConfig()
	}
	return comparatorJob{Cell: c, name: "fig13-" + string(cfg), pif: &pc}
}

// Fig13 compares Jukebox against PIF and PIF-ideal, alone and combined, on
// the interleaved Skylake setup.
func Fig13(opt Options) (Fig13Result, error) {
	opt = opt.withDefaults()
	out := Fig13Result{
		Configs:    []PIFConfig{CfgPIF, CfgPIFIdeal, CfgJukebox, CfgJBPIFIdeal},
		Functions:  workload.Representatives(),
		SpeedupPct: map[PIFConfig]map[string]float64{},
	}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var jobs []runner.Job[measured]
	for _, w := range suite {
		jobs = append(jobs, pifJob(opt, w.Name, CfgBaseline))
	}
	for _, cfg := range out.Configs {
		for _, w := range suite {
			jobs = append(jobs, pifJob(opt, w.Name, cfg))
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	base := map[string]float64{}
	for i, w := range suite {
		base[w.Name] = normCycles(ms[i])
	}
	for ci, cfg := range out.Configs {
		out.SpeedupPct[cfg] = map[string]float64{}
		var all []float64
		for wi, w := range suite {
			m := ms[len(suite)*(1+ci)+wi]
			sp := stats.SpeedupPct(base[w.Name], normCycles(m))
			all = append(all, 1+sp/100)
			for _, rep := range out.Functions {
				if rep == w.Name {
					out.SpeedupPct[cfg][rep] = sp
				}
			}
		}
		out.SpeedupPct[cfg]["GEOMEAN"] = (stats.GeoMean(all) - 1) * 100
	}
	return out, nil
}

// Table renders the comparison.
func (r Fig13Result) Table() *stats.Table {
	hdr := append(append([]string{"Config"}, r.Functions...), "GEOMEAN")
	t := stats.NewTable("Figure 13: Jukebox vs PIF (speedup over interleaved baseline)", hdr...)
	for _, cfg := range r.Configs {
		cells := []string{string(cfg)}
		for _, fn := range r.Functions {
			if v, ok := r.SpeedupPct[cfg][fn]; ok {
				cells = append(cells, fmt.Sprintf("%.1f%%", v))
			} else {
				cells = append(cells, "-")
			}
		}
		cells = append(cells, fmt.Sprintf("%.1f%%", r.SpeedupPct[cfg]["GEOMEAN"]))
		t.AddRow(cells...)
	}
	return t
}
