// Command lukewarm regenerates the paper's figures and tables from the
// simulator, plus the repository's ablations and extensions. Every
// experiment of the registry is a subcommand, as is each table an
// experiment can render alone; `lukewarm -h` lists them, and `all` runs
// every experiment in registry order. The extra `check` subcommand runs the
// differential-oracle and metamorphic-property validation battery
// (internal/check) instead of an experiment.
//
// Usage:
//
//	lukewarm [-measure N] [-warmup N] [-funcs Auth-G,Email-P] [-jobs N] <experiment>
//
// The -csv flag mirrors every table into machine-readable CSV files; -audit
// cross-checks every measured invocation against the simulator's
// conservation invariants.
//
// Every experiment's measurements run as independent simulation cells on a
// worker pool (-jobs, default GOMAXPROCS) with a content-addressed result
// cache; tables are byte-identical for any -jobs value. -cache DIR persists
// the cache across runs, -progress streams per-cell progress to stderr, and
// -report FILE writes a JSON run report with per-experiment wall time, cell
// counts, cache hit rates and headline metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lukewarm"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one command line and returns the process exit status: 0 on
// success, 1 when the run fails, 2 on a usage error. Tables go to stdout,
// diagnostics to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lukewarm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	measure := fs.Int("measure", 0, "measured invocations per configuration (0 = default)")
	warmup := fs.Int("warmup", 0, "warm-up invocations per configuration (0 = default)")
	noWarmup := fs.Bool("nowarmup", false, "run with zero warm-up invocations")
	funcs := fs.String("funcs", "", "comma-separated function subset (default: all 20)")
	csvDir := fs.String("csv", "", "also write each table as CSV into this directory")
	audit := fs.Bool("audit", false, "check conservation invariants on every measured invocation")
	seed := fs.Uint64("seed", 42, "fault-injection seed for the chaos experiment")
	jobs := fs.Int("jobs", 0, "simulation cells run concurrently (0 = GOMAXPROCS)")
	cacheDir := fs.String("cache", "", "persist the content-addressed result cache in this directory")
	progress := fs.Bool("progress", false, "stream per-cell progress lines to stderr")
	reportPath := fs.String("report", "", "write a JSON run report (wall time, cells, cache hits, headline metrics) to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	fs.Usage = func() { usage(fs) }
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	stopProfiles, err := startProfiles(*cpuProfile, *memProfile, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "lukewarm:", err)
		return 1
	}
	// Flushes the profiles on every return path, so a profiled failing run
	// still writes them.
	defer stopProfiles()
	engCfg := lukewarm.EngineConfig{Jobs: *jobs, CacheDir: *cacheDir}
	if *progress {
		engCfg.Progress = stderr
	}
	eng, err := lukewarm.NewEngine(engCfg)
	if err != nil {
		fmt.Fprintln(stderr, "lukewarm:", err)
		return 1
	}
	opt := lukewarm.ExperimentOptions{
		Measure: *measure, Warmup: *warmup, NoWarmup: *noWarmup,
		Audit: *audit, Engine: eng, Seed: *seed,
	}
	if *funcs != "" {
		opt.Functions = strings.Split(*funcs, ",")
	}
	s := &session{
		p:   printer{w: stdout, csvDir: *csvDir},
		opt: opt,
		eng: eng,
		rep: &runReport{Jobs: eng.Jobs(), CacheDir: *cacheDir, Headline: map[string]float64{}},
	}

	name := fs.Arg(0)
	start := time.Now()
	runErr := s.run(name)
	s.finish(time.Since(start))
	if *reportPath != "" {
		if err := s.writeReport(*reportPath); err != nil {
			fmt.Fprintln(stderr, "lukewarm: report:", err)
			return 1
		}
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "lukewarm:", runErr)
		return 1
	}
	stopProfiles()
	fmt.Fprintf(stdout, "(%s completed in %s)\n", name, time.Since(start).Round(time.Millisecond))
	return 0
}

// startProfiles begins CPU profiling and arranges the exit-time heap
// profile. The returned stop function is idempotent and must run on every
// exit path once profiling has started; either path may be empty.
func startProfiles(cpuPath, memPath string, stderr io.Writer) (func(), error) {
	stopCPU := func() {}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
	}
	done := false
	return func() {
		if done {
			return
		}
		done = true
		stopCPU()
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err != nil {
			fmt.Fprintln(stderr, "lukewarm: memprofile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize final live-heap state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, "lukewarm: memprofile:", err)
		}
	}, nil
}

// usage prints the synopsis, the experiment list generated from the
// registry, and the flags.
func usage(fs *flag.FlagSet) {
	w := fs.Output()
	fmt.Fprint(w, `lukewarm - regenerate the figures and tables of
"Lukewarm Serverless Functions: Characterization and Optimization" (ISCA'22)

usage: lukewarm [flags] <experiment>

experiments:
`)
	line := func(name, desc string) { fmt.Fprintf(w, "  %-12s  %s\n", name, desc) }
	for _, e := range lukewarm.Experiments() {
		line(e.Name, e.Desc)
		if len(e.Tables) > 0 {
			line("", "one table alone: "+strings.Join(e.Tables, ", "))
		}
	}
	line("all", "every experiment above, in order")
	line("check", "differential-oracle + metamorphic-property validation battery")
	fmt.Fprint(w, "\nflags:\n")
	fs.PrintDefaults()
}

// printer renders tables to w and, when csvDir is set, mirrors each one
// into <csvDir>/<slug>.csv.
type printer struct {
	w      io.Writer
	csvDir string
}

func (p printer) show(t *lukewarm.Table) error {
	fmt.Fprintln(p.w, t)
	if p.csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(p.csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.csvDir, t.Slug()+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.WriteCSV(f)
}

// reportEntry is one experiment's telemetry in the run report.
type reportEntry struct {
	Experiment   string  `json:"experiment"`
	WallMs       float64 `json:"wall_ms"`
	Cells        uint64  `json:"cells"`
	CacheHits    uint64  `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// runReport is the -report JSON document.
type runReport struct {
	Jobs        int           `json:"jobs"`
	CacheDir    string        `json:"cache_dir,omitempty"`
	Experiments []reportEntry `json:"experiments"`
	TotalWallMs float64       `json:"total_wall_ms"`
	// CellWallMs sums per-cell wall time across workers; it exceeds
	// TotalWallMs when cells ran concurrently.
	CellWallMs     float64            `json:"cell_wall_ms"`
	TotalCells     uint64             `json:"total_cells"`
	TotalCacheHits uint64             `json:"total_cache_hits"`
	CacheHitRate   float64            `json:"cache_hit_rate"`
	Headline       map[string]float64 `json:"headline,omitempty"`
}

// session threads one CLI invocation's shared state: the printer, the
// experiment options (carrying the shared engine), and the accumulating run
// report.
type session struct {
	p   printer
	opt lukewarm.ExperimentOptions
	eng *lukewarm.Engine
	rep *runReport
}

// run dispatches one command-line argument: check, all, an experiment, or
// one table of an experiment.
func (s *session) run(name string) error {
	switch name {
	case "check":
		rep := lukewarm.Check()
		if err := s.p.show(rep.Table()); err != nil {
			return err
		}
		return rep.Err()
	case "all":
		for _, e := range lukewarm.Experiments() {
			if err := s.step(e.Name, e, -1); err != nil {
				return err
			}
		}
		return nil
	}
	e, table, ok := lookup(name)
	if !ok {
		return fmt.Errorf("unknown experiment %q (run with no arguments for the list)", name)
	}
	return s.step(name, e, table)
}

// lookup resolves a command-line argument to the experiment it selects and
// the table it picks (-1: all of them).
func lookup(name string) (lukewarm.Experiment, int, bool) {
	for _, e := range lukewarm.Experiments() {
		if table, ok := e.Selects(name); ok {
			return e, table, true
		}
	}
	return lukewarm.Experiment{}, -1, false
}

// step runs experiment e under label and renders its notes and tables (only
// the table-th one when table >= 0); a run that fails with tables, such as
// a chaos sweep with FAIL cells, still renders them. It labels the engine's
// progress lines, times the run, and records the engine-counter deltas and
// the headline metrics in the report.
func (s *session) step(label string, e lukewarm.Experiment, table int) error {
	s.eng.SetPhase(label)
	before := s.eng.Stats()
	start := time.Now()
	out, err := e.Run(s.opt)
	after := s.eng.Stats()
	entry := reportEntry{
		Experiment: label,
		WallMs:     float64(time.Since(start).Microseconds()) / 1000,
		Cells:      after.Cells - before.Cells,
		CacheHits:  after.CacheHits - before.CacheHits,
	}
	if entry.Cells > 0 {
		entry.CacheHitRate = float64(entry.CacheHits) / float64(entry.Cells)
	}
	s.rep.Experiments = append(s.rep.Experiments, entry)
	maps.Copy(s.rep.Headline, out.Headline)
	for _, n := range out.Notes {
		fmt.Fprintln(s.p.w, n)
	}
	tables := out.Tables
	if table >= 0 && table < len(tables) {
		tables = tables[table : table+1]
	}
	for _, t := range tables {
		if err := s.p.show(t); err != nil {
			return err
		}
	}
	return err
}

// finish seals the report's totals.
func (s *session) finish(wall time.Duration) {
	st := s.eng.Stats()
	s.rep.TotalWallMs = float64(wall.Microseconds()) / 1000
	s.rep.CellWallMs = float64(st.CellWall.Microseconds()) / 1000
	s.rep.TotalCells = st.Cells
	s.rep.TotalCacheHits = st.CacheHits
	if st.Cells > 0 {
		s.rep.CacheHitRate = float64(st.CacheHits) / float64(st.Cells)
	}
}

// writeReport marshals the run report to path.
func (s *session) writeReport(path string) error {
	data, err := json.MarshalIndent(s.rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
