package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// recordJB is the record-only Jukebox configuration Fig. 8 sweeps: an
// unlimited metadata budget so the recorded size itself is the measurement.
func recordJB(regionBytes, crrbEntries int) core.Config {
	return core.Config{
		RegionSizeBytes: regionBytes,
		CRRBEntries:     crrbEntries,
		MetadataBytes:   0, // unlimited: measure required size
		VABits:          48,
		RecordEnabled:   true,
		ReplayEnabled:   false,
	}
}

// recordJob measures the metadata a record-only Jukebox needs for one
// lukewarm invocation, reported in MetaBytes. Fig8, CRRBAblation and
// DynamicMetadata share it, so overlapping sweep points (e.g. CRRB=16 at
// 1 KB regions) are simulated once.
type recordJob struct{ runner.Cell }

func (j recordJob) Label() string { return j.Workload + "/record" }

func (j recordJob) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	srv.FlushMicroarch()
	res := srv.Invoke(inst)
	if j.Audit {
		if err := auditInvocation(inst, res); err != nil {
			return measured{}, err
		}
	}
	return measured{JB: inst.Jukebox.Stats, MetaBytes: inst.Jukebox.Stats.LastRecordBytes}, nil
}

// recordOnly describes one record-only measurement with Jukebox config jb.
func recordOnly(opt Options, w string, jb core.Config) recordJob {
	return recordJob{runner.Cell{Workload: w, CPU: cpu.SkylakeConfig(), Jukebox: &jb, Audit: opt.Audit}}
}

// Fig8Row is one function's metadata-size curve across region sizes.
type Fig8Row struct {
	Name string
	// BytesByRegion maps region size (bytes) to recorded metadata size
	// (bytes) with an unlimited buffer.
	BytesByRegion map[int]int
}

// Fig8Result backs Fig. 8.
type Fig8Result struct {
	RegionSizes []int
	Rows        []Fig8Row
}

// fig8CRRBEntries is the CRRB size of the paper's Fig. 8 plot; the
// CRRB-size ablation sweeps the other sizes.
const fig8CRRBEntries = 16

// Fig8 measures the metadata required to record one full lukewarm
// invocation of each function, across code-region sizes, with the paper's
// 16-entry CRRB.
func Fig8(opt Options) (Fig8Result, error) {
	opt = opt.withDefaults()
	regions := []int{128, 256, 512, 1024, 2048, 4096, 8192}
	out := Fig8Result{RegionSizes: regions}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var jobs []recordJob
	for _, w := range suite {
		for _, rs := range regions {
			jobs = append(jobs, recordOnly(opt, w.Name, recordJB(rs, fig8CRRBEntries)))
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	for wi, w := range suite {
		row := Fig8Row{Name: w.Name, BytesByRegion: map[int]int{}}
		for ri, rs := range regions {
			row.BytesByRegion[rs] = ms[wi*len(regions)+ri].MetaBytes
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// BestRegionSize reports the region size minimizing the suite-mean metadata
// size (the paper finds 1 KB).
func (r Fig8Result) BestRegionSize() int {
	best, bestMean := 0, 0.0
	for _, rs := range r.RegionSizes {
		var s stats.Summary
		for _, row := range r.Rows {
			s.Add(float64(row.BytesByRegion[rs]))
		}
		if best == 0 || s.Mean() < bestMean {
			best, bestMean = rs, s.Mean()
		}
	}
	return best
}

// Table renders the sweep.
func (r Fig8Result) Table() *stats.Table {
	hdr := []string{"Function"}
	for _, rs := range r.RegionSizes {
		hdr = append(hdr, fmt.Sprintf("%dB", rs))
	}
	t := stats.NewTable(
		fmt.Sprintf("Figure 8: metadata size (KB) vs region size, CRRB=%d", fig8CRRBEntries), hdr...)
	sums := make([]stats.Summary, len(r.RegionSizes))
	for _, row := range r.Rows {
		cells := []string{row.Name}
		for i, rs := range r.RegionSizes {
			kb := float64(row.BytesByRegion[rs]) / 1024
			sums[i].Add(kb)
			cells = append(cells, fmt.Sprintf("%.1f", kb))
		}
		t.AddRow(cells...)
	}
	cells := []string{"Mean"}
	for i := range r.RegionSizes {
		cells = append(cells, fmt.Sprintf("%.1f", sums[i].Mean()))
	}
	t.AddRow(cells...)
	return t
}

// CRRBAblationResult reports the paper's "modest sensitivity to the size of
// the CRRB" claim (Sec. 5.1): mean metadata size at the preferred 1 KB
// region for CRRB sizes 8, 16 and 32.
type CRRBAblationResult struct {
	Sizes  []int
	MeanKB []float64
}

// CRRBAblation runs the CRRB-size sensitivity study.
func CRRBAblation(opt Options) (CRRBAblationResult, error) {
	opt = opt.withDefaults()
	out := CRRBAblationResult{Sizes: []int{8, 16, 32}}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var jobs []recordJob
	for _, n := range out.Sizes {
		for _, w := range suite {
			jobs = append(jobs, recordOnly(opt, w.Name, recordJB(1024, n)))
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	for ni := range out.Sizes {
		var s stats.Summary
		for wi := range suite {
			s.Add(float64(ms[ni*len(suite)+wi].MetaBytes) / 1024)
		}
		out.MeanKB = append(out.MeanKB, s.Mean())
	}
	return out, nil
}

// Table renders the ablation.
func (r CRRBAblationResult) Table() *stats.Table {
	t := stats.NewTable("CRRB-size sensitivity (mean metadata KB at 1KB regions)", "CRRB entries", "Mean KB")
	for i, n := range r.Sizes {
		t.AddRow(fmt.Sprint(n), fmt.Sprintf("%.1f", r.MeanKB[i]))
	}
	return t
}

// suiteByName is a convenience for single-function lookups in experiments.
func suiteByName(name string) (workload.Workload, error) {
	w, err := workload.ByName(name)
	if err != nil {
		return workload.Workload{}, fmt.Errorf("experiments: %w", err)
	}
	return w, nil
}
