package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/mem"
	"lukewarm/internal/reap"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/workload"
)

// CompactionResult backs the virtual-vs-physical metadata ablation
// (Sec. 3.3 argues Jukebox must record virtual addresses to survive OS page
// migration; this experiment demonstrates why).
type CompactionResult struct {
	// Coverage maps addressing mode -> mean covered fraction of baseline L2
	// instruction misses after a page-compaction event.
	Coverage map[string]float64
	// Speedup maps addressing mode -> mean speedup over baseline after
	// compaction.
	Speedup map[string]float64
}

// Compaction records metadata, migrates every page of the instance
// (vm.AddressSpace.Compact), and measures the next lukewarm invocation,
// for both addressing modes.
func Compaction(opt Options) (CompactionResult, error) {
	opt = opt.withDefaults()
	out := CompactionResult{Coverage: map[string]float64{}, Speedup: map[string]float64{}}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	modes := []string{"virtual", "physical"}
	// One batch: each workload's baseline once (the two addressing modes
	// share it), then the post-compaction jobs for both modes.
	var jobs []runner.Job[measured]
	for _, w := range suite {
		jobs = append(jobs, opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm))
	}
	for _, label := range modes {
		for _, w := range suite {
			jb := core.DefaultConfig()
			jb.UsePhysicalAddresses = label == "physical"
			c := opt.cell(w.Name, cpu.SkylakeConfig(), &jb, false, lukewarm)
			// Measure exactly the first post-compaction invocation: later
			// ones re-record valid addresses and would mask the effect.
			c.Measure = 1
			jobs = append(jobs, compactionJob{c})
		}
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	for mi, label := range modes {
		var cov stats.Summary
		var speed []float64
		for wi := range suite {
			base := ms[wi]
			m := ms[len(suite)*(1+mi)+wi]
			l2 := m.L2
			denom := float64(l2.PrefetchUsed[mem.Instr] + l2.DemandMisses[mem.Instr])
			if denom > 0 {
				cov.Add(float64(l2.PrefetchUsed[mem.Instr]) / denom)
			}
			speed = append(speed, 1+stats.SpeedupPct(normCycles(base), normCycles(m))/100)
		}
		out.Coverage[label] = cov.Mean()
		out.Speedup[label] = (stats.GeoMean(speed) - 1) * 100
	}
	return out, nil
}

// compactionJob records metadata over the cell's warm-up invocations,
// migrates every page, then measures the first post-compaction invocations.
type compactionJob struct{ runner.Cell }

func (j compactionJob) Label() string {
	return fmt.Sprintf("%s/compact-physical=%t", j.Workload, j.Jukebox.UsePhysicalAddresses)
}

func (j compactionJob) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	srv.RunLukewarm(inst, j.Warmup) // record metadata
	inst.AS.Compact()               // the OS migrates every page
	return runner.MeasureInstance(srv, inst, j.Mode, 0, j.Measure, j.Audit)
}

// Table renders the ablation.
func (r CompactionResult) Table() *stats.Table {
	t := stats.NewTable("Ablation: metadata addressing vs OS page migration",
		"Metadata addresses", "Coverage after compaction", "Speedup after compaction")
	for _, mode := range []string{"virtual", "physical"} {
		t.AddRow(mode,
			fmt.Sprintf("%.0f%%", r.Coverage[mode]*100),
			fmt.Sprintf("%.1f%%", r.Speedup[mode]))
	}
	return t
}

// SnapshotResult backs the Sec. 3.4.2 extension: shipping Jukebox metadata
// inside a function snapshot accelerates the very first invocation of a
// freshly restored instance (which is otherwise fully cold).
type SnapshotResult struct {
	// FirstInvocationSpeedupPct is the geomean speedup of a restored
	// instance's first invocation when it adopts snapshot metadata.
	FirstInvocationSpeedupPct float64
	// PerFunction lists the per-function speedups.
	PerFunction map[string]float64
}

// Snapshot measures cold-start replay: a donor instance records metadata;
// a fresh instance with an identical (snapshot-cloned) layout adopts it and
// replays on its first invocation.
func Snapshot(opt Options) (SnapshotResult, error) {
	opt = opt.withDefaults()
	out := SnapshotResult{PerFunction: map[string]float64{}}
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	var jobs []snapshotJob
	for _, w := range suite {
		jb := core.DefaultConfig()
		rc := reap.DefaultConfig()
		replay := opt.cell(w.Name, cpu.SkylakeConfig(), &jb, false, lukewarm)
		replay.Reap = &rc
		jobs = append(jobs,
			snapshotJob{opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm), false},
			snapshotJob{replay, true})
	}
	ms, err := runner.Run(opt.engine(), jobs)
	if err != nil {
		return out, err
	}
	var speed []float64
	for i, w := range suite {
		cold, first := ms[2*i], ms[2*i+1]
		sp := stats.SpeedupPct(normCycles(cold), normCycles(first))
		out.PerFunction[w.Name] = sp
		speed = append(speed, 1+sp/100)
	}
	out.FirstInvocationSpeedupPct = (stats.GeoMean(speed) - 1) * 100
	return out, nil
}

// snapshotJob measures one instance's first invocation from a full flush.
// Without replay the instance is fresh and fully cold; with replay a donor
// records Jukebox metadata and a REAP manifest over the cell's warm-up
// invocations, and a restored instance adopts both before its first
// invocation.
type snapshotJob struct {
	runner.Cell
	replay bool
}

func (j snapshotJob) Label() string {
	return fmt.Sprintf("%s/snapshot-replay=%t", j.Workload, j.replay)
}

func (j snapshotJob) Run() (measured, error) {
	srv, inst, err := j.Deploy()
	if err != nil {
		return measured{}, err
	}
	if j.replay {
		donor := inst
		srv.RunLukewarm(donor, j.Warmup)
		inst = srv.Deploy(donor.Workload)
		if err := inst.Jukebox.AdoptMetadata(donor.Jukebox); err != nil {
			return measured{}, fmt.Errorf("experiments: snapshot adopt %s: %w", j.Workload, err)
		}
		// The snapshot ships the REAP record file alongside the Jukebox
		// metadata (internal/reap supersedes the metadata-only study): the
		// restored instance prefetches the donor's page working set too.
		if err := inst.Reap.AdoptManifest(donor.Reap); err != nil {
			return measured{}, fmt.Errorf("experiments: snapshot adopt %s: %w", j.Workload, err)
		}
	}
	srv.FlushMicroarch()
	res := srv.Invoke(inst)
	if j.Audit {
		if err := auditInvocation(inst, res); err != nil {
			return measured{}, err
		}
	}
	return measured{Instrs: res.Instrs, Cycles: res.Cycles}, nil
}

// Table renders the snapshot study.
func (r SnapshotResult) Table() *stats.Table {
	t := stats.NewTable("Extension: snapshot-shipped metadata accelerates the first invocation",
		"Function", "First-invocation speedup")
	for _, name := range workload.Names() {
		if sp, ok := r.PerFunction[name]; ok {
			t.AddRow(name, fmt.Sprintf("%.1f%%", sp))
		}
	}
	t.AddRow("GEOMEAN", fmt.Sprintf("%.1f%%", r.FirstInvocationSpeedupPct))
	return t
}

// DynamicMetadataResult backs the Sec. 5.1 extension: per-function metadata
// sizing (each instance gets its Fig. 8 requirement instead of a fixed
// budget).
type DynamicMetadataResult struct {
	// FixedKB and Dynamic report the geomean speedup and total metadata
	// cost of a 1000-instance server under each policy.
	FixedSpeedupPct   float64
	DynamicSpeedupPct float64
	FixedTotalMB      float64
	DynamicTotalMB    float64
}

// DynamicMetadata compares the fixed 16 KB budget against per-function
// sizing at each function's measured requirement (rounded up to a page).
func DynamicMetadata(opt Options) (DynamicMetadataResult, error) {
	opt = opt.withDefaults()
	var out DynamicMetadataResult
	suite, err := opt.suite()
	if err != nil {
		return out, err
	}
	// Phase 1: each function's baseline plus an unlimited record-only pass
	// that measures its metadata requirement.
	var phase1 []runner.Job[measured]
	for _, w := range suite {
		sizing := core.DefaultConfig()
		sizing.MetadataBytes = 0
		sizing.ReplayEnabled = false
		phase1 = append(phase1,
			opt.cell(w.Name, cpu.SkylakeConfig(), nil, false, lukewarm),
			recordOnly(opt, w.Name, sizing))
	}
	ms1, err := runner.Run(opt.engine(), phase1)
	if err != nil {
		return out, err
	}
	// Phase 2: each function under the fixed budget and its own sized budget
	// (the dynamic budgets only exist once phase 1 has run).
	dynBudgets := make([]int, len(suite))
	var phase2 []runner.Cell
	for i, w := range suite {
		pages := (ms1[2*i+1].MetaBytes + 4095) / 4096
		dynBudgets[i] = pages * 4096
		fixedJB := core.DefaultConfig()
		fixedJB.MetadataBytes = 16 << 10
		dynJB := core.DefaultConfig()
		dynJB.MetadataBytes = dynBudgets[i]
		phase2 = append(phase2,
			opt.cell(w.Name, cpu.SkylakeConfig(), &fixedJB, false, lukewarm),
			opt.cell(w.Name, cpu.SkylakeConfig(), &dynJB, false, lukewarm))
	}
	ms2, err := opt.engine().Measure(phase2)
	if err != nil {
		return out, err
	}
	var fixed, dyn []float64
	var fixedBytes, dynBytes float64
	for i := range suite {
		base := normCycles(ms1[2*i])
		fixed = append(fixed, 1+stats.SpeedupPct(base, normCycles(ms2[2*i]))/100)
		dyn = append(dyn, 1+stats.SpeedupPct(base, normCycles(ms2[2*i+1]))/100)
		fixedBytes += 2 * 16 << 10
		dynBytes += 2 * float64(dynBudgets[i])
	}
	n := float64(len(fixed))
	scale := 1000 / n // per-1000-instance cost, instances spread evenly
	out.FixedSpeedupPct = (stats.GeoMean(fixed) - 1) * 100
	out.DynamicSpeedupPct = (stats.GeoMean(dyn) - 1) * 100
	out.FixedTotalMB = fixedBytes * scale / (1 << 20)
	out.DynamicTotalMB = dynBytes * scale / (1 << 20)
	return out, nil
}

// Table renders the comparison.
func (r DynamicMetadataResult) Table() *stats.Table {
	t := stats.NewTable("Extension: dynamic per-function metadata sizing (1000 warm instances)",
		"Policy", "Geomean speedup", "Total metadata")
	t.AddRow("Fixed 16KB x2", fmt.Sprintf("%.1f%%", r.FixedSpeedupPct), fmt.Sprintf("%.0f MB", r.FixedTotalMB))
	t.AddRow("Per-function", fmt.Sprintf("%.1f%%", r.DynamicSpeedupPct), fmt.Sprintf("%.0f MB", r.DynamicTotalMB))
	return t
}
