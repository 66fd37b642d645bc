// Package experiments contains one runner per figure and table of the
// paper's evaluation (see DESIGN.md's per-experiment index). Each runner
// describes its measurements as independent jobs — standard runner.Cells,
// or a small job type per custom setup whose fields are everything its Run
// reads — and submits them to the execution engine (internal/runner), which
// fans them out across a worker pool and memoizes results by content. The
// registry (Registry) lists every experiment once; the cmd/lukewarm binary,
// the golden harness, the facade and the repository's benchmarks all
// iterate it.
package experiments

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/runner"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// Options scales an experiment run. The zero value selects defaults sized
// for interactive use; the paper's methodology (20 measured invocations
// after checkpoint warm-up) corresponds to Warmup: 2, Measure: 20.
type Options struct {
	// Warmup is the number of unmeasured invocations run first: they warm
	// the reference configuration's caches and record the first Jukebox
	// metadata generation (standing in for the paper's 20000-invocation
	// functional warm-up and checkpoint). Zero selects the default of 2;
	// request an explicitly unwarmed run with NoWarmup (a negative Warmup is
	// honored as "none" for backward compatibility).
	Warmup int
	// NoWarmup requests zero warm-up invocations. The flag exists because
	// Warmup's zero value means "default", so 0 alone cannot express "none".
	NoWarmup bool
	// Measure is the number of measured invocations per configuration.
	Measure int
	// Functions restricts the suite to the named functions (nil = all 20).
	Functions []string
	// Audit runs the faults.Audit invariant checks on every measured
	// invocation and on the per-window cache counters, failing the
	// experiment with an error on any violation.
	Audit bool
	// Engine executes the experiment's simulation cells. Nil selects a
	// fresh default engine (GOMAXPROCS workers, in-memory result cache);
	// the CLI shares one configured engine across all experiments so the
	// cache and telemetry span the whole run.
	Engine *runner.Engine
	// Seed seeds the chaos sweep's fault plans. Zero is an ordinary seed.
	Seed uint64
	// FootprintInvocations is the number of invocations Figs. 6a/6b trace
	// per function; zero or less selects the paper's 25.
	FootprintInvocations int
}

func (o Options) withDefaults() Options {
	switch {
	case o.NoWarmup || o.Warmup < 0:
		o.Warmup = 0
	case o.Warmup == 0:
		o.Warmup = 2
	}
	if o.Measure <= 0 {
		o.Measure = 3
	}
	if o.Engine == nil {
		o.Engine = runner.Default()
	}
	if o.FootprintInvocations <= 0 {
		o.FootprintInvocations = 25
	}
	return o
}

// engine returns the run's execution engine (withDefaults guarantees one).
func (o Options) engine() *runner.Engine { return o.Engine }

// cell describes one standard measurement with the run's window settings.
func (o Options) cell(w string, cfg cpu.Config, jb *core.Config, perfect bool, md mode) runner.Cell {
	return runner.Cell{
		Workload: w, CPU: cfg, Jukebox: jb, Perfect: perfect, Mode: md,
		Warmup: o.Warmup, Measure: o.Measure, Audit: o.Audit,
	}
}

// suite resolves the selected workloads, erroring on unknown names.
func (o Options) suite() ([]workload.Workload, error) {
	if len(o.Functions) == 0 {
		return workload.Suite(), nil
	}
	return byNames(o.Functions)
}

// byNames resolves function names to workloads.
func byNames(names []string) ([]workload.Workload, error) {
	ws := make([]workload.Workload, len(names))
	for i, name := range names {
		w, err := suiteByName(name)
		if err != nil {
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// namesOf lists the workloads' names.
func namesOf(ws []workload.Workload) []string {
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// deployAll builds a server from cfg and deploys the named functions on it.
func deployAll(cfg serverless.Config, names []string) (*serverless.Server, error) {
	ws, err := byNames(names)
	if err != nil {
		return nil, err
	}
	srv := serverless.New(cfg)
	for _, w := range ws {
		srv.Deploy(w)
	}
	return srv, nil
}

// auditInvocation checks one invocation and inst's Jukebox and REAP
// ledgers against the faults package's invariants.
func auditInvocation(inst *serverless.Instance, res cpu.RunResult) error {
	err := faults.Audit(res)
	if err == nil && inst.Jukebox != nil {
		err = faults.AuditJukebox(inst.Jukebox.Stats)
	}
	if err == nil && inst.Reap != nil {
		err = faults.AuditReap(inst.Reap.Stats)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", inst.Workload.Name, err)
	}
	return nil
}

// mode selects the execution regime of a measurement (see runner.Mode).
type mode = runner.Mode

const (
	// reference: back-to-back invocations, fully warm (Sec. 2.3).
	reference = runner.Reference
	// lukewarm: full microarchitectural flush before every invocation —
	// the paper's interleaved/baseline configuration.
	lukewarm = runner.Lukewarm
)

// measured aggregates one measurement window (see runner.Measurement).
type measured = runner.Measurement
