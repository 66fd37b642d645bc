package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/experiments"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// sweepRound is one round of figure-sweep: a fresh runner.Engine with the
// in-memory cache runs a fixed list of experiments the way researchers use
// the repository. The experiments fix their own seeds, so the workload is
// seedless.
type sweepRound struct {
	funcs   []string
	measure int
	eng     *runner.Engine
	prog    *progressSpans
	steps   []sweepStep
	perf    experiments.PerfResult
	stats   runner.Stats
}

// sweepStep is one experiment of the list and the table it rendered.
type sweepStep struct {
	table *stats.Table
	err   error
}

func newSweepRound(_ uint64, sz size) round {
	return &sweepRound{funcs: sz.sweepFuncs, measure: sz.sweepMeasure}
}

// setup builds the programs of every function the list touches (the
// experiments rebuild them per cell; this validates the names up front) and
// the engine.
func (r *sweepRound) setup() error {
	for _, name := range r.funcs {
		if _, err := workload.ByName(name); err != nil {
			return err
		}
	}
	r.prog = &progressSpans{}
	eng, err := runner.New(runner.Config{Jobs: runtime.NumCPU(), Progress: r.prog})
	r.eng = eng
	return err
}

func (r *sweepRound) run(tr *tracer, parent int) {
	opt := experiments.Options{Warmup: 1, Measure: r.measure, Functions: r.funcs, Engine: r.eng}
	type tabler interface{ Table() *stats.Table }
	one := func(x tabler, err error) (*stats.Table, error) { return x.Table(), err }
	perf := func(pick func(experiments.PerfResult) *stats.Table) func() (*stats.Table, error) {
		return func() (*stats.Table, error) {
			p, err := experiments.Performance(opt, cpu.SkylakeConfig(), core.DefaultConfig())
			r.perf = p
			return pick(p), err
		}
	}
	list := []struct {
		name string
		run  func() (*stats.Table, error)
	}{
		{"fig1", func() (*stats.Table, error) { return one(experiments.Fig1(opt)) }},
		{"fig2", func() (*stats.Table, error) {
			x, err := experiments.Characterize(opt)
			return x.Fig2Table(), err
		}},
		// fig11 reruns fig10's cells, so on one engine it is all cache hits.
		{"fig10", perf(experiments.PerfResult.Fig10Table)},
		{"fig11", perf(experiments.PerfResult.Fig11Table)},
		{"fig13", func() (*stats.Table, error) { return one(experiments.Fig13(opt)) }},
		{"fig9", func() (*stats.Table, error) { return one(experiments.Fig9(opt)) }},
		{"table3", func() (*stats.Table, error) { return one(experiments.Table3(opt)) }},
	}
	r.prog.bind(tr)
	for i, e := range list {
		sp := tr.begin("experiments."+e.name, parent, int64(i))
		r.prog.setParent(sp, int64(i))
		r.eng.SetPhase(e.name)
		t, err := e.run()
		tr.end(sp)
		r.steps = append(r.steps, sweepStep{table: t, err: err})
	}
	r.stats = r.eng.Stats()
}

// result checks that every experiment succeeded with non-empty tables; the
// rendered tables hold the headline values the digest compares across
// rounds.
func (r *sweepRound) result() roundResult {
	out := roundResult{ops: len(r.steps)}
	var b strings.Builder
	for _, s := range r.steps {
		if s.err != nil || s.table == nil || s.table.NumRows() == 0 {
			out.failed++
			continue
		}
		b.WriteString(s.table.String())
	}
	out.tables = b.String()
	// fig10's measured windows are the only simulated counters the sweep's
	// public results expose.
	var instrs, cycles, l1i, l2, llc, dram, replay, used, fills uint64
	var stack, fetch float64
	for _, row := range r.perf.Rows {
		for _, m := range []runner.Measurement{row.Baseline, row.Jukebox, row.Perfect} {
			instrs += m.Instrs
			cycles += uint64(m.Cycles)
			l1i += both(m.L1I.DemandMisses)
			l2 += both(m.L2.DemandMisses)
			llc += both(m.LLC.DemandMisses)
			for _, v := range m.DRAM {
				dram += v
			}
			replay += m.JB.ReplayPrefetches
			used += both(m.L2.PrefetchUsed)
			fills += both(m.L2.PrefetchFills)
			stack += m.Stack.Total()
			fetch += m.Stack.Cycles[topdown.FetchLatency]
		}
	}
	out.instrs = instrs
	out.counts = []count{
		{"cpu.instrs", float64(instrs)},
		{"cpu.cycles", float64(cycles)},
		{"cpu.fetch_latency_frac", ratio(fetch, stack)},
		{"mem.l1i_misses", float64(l1i)},
		{"mem.l2_misses", float64(l2)},
		{"mem.llc_misses", float64(llc)},
		{"mem.dram_bytes", float64(dram)},
		{"core.replay_prefetches", float64(replay)},
		{"core.prefetch_used_frac", ratio(float64(used), float64(fills))},
		{"runner.cells", float64(r.stats.Cells)},
		{"runner.cache_hit_frac", ratio(float64(r.stats.CacheHits), float64(r.stats.Cells))},
	}
	out.work = int(r.stats.Cells - r.stats.CacheHits)
	out.cellWall = r.stats.CellWall
	out.jobs = r.eng.Jobs()
	return out
}

// progressSpans reads the engine's progress stream, one line per finished
// cell ("[12/60] fig10 Pay-N/jukebox 1.834s"), and records each cell as a
// span under the running experiment.
type progressSpans struct {
	mu     sync.Mutex
	tr     *tracer
	parent int
	op     int64
	buf    []byte
}

func (p *progressSpans) bind(tr *tracer) { p.tr = tr }

func (p *progressSpans) setParent(sp int, op int64) {
	p.mu.Lock()
	p.parent, p.op = sp, op
	p.mu.Unlock()
}

func (p *progressSpans) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.tr == nil {
		return len(b), nil
	}
	p.buf = append(p.buf, b...)
	for {
		i := bytes.IndexByte(p.buf, '\n')
		if i < 0 {
			return len(b), nil
		}
		d, err := cellWall(string(p.buf[:i]))
		if err != nil {
			return 0, err
		}
		p.buf = p.buf[i+1:]
		p.tr.add("runner.cell", p.parent, p.op, d)
	}
}

// cellWall extracts the wall time from one progress line.
func cellWall(line string) (time.Duration, error) {
	f := strings.Fields(strings.TrimSuffix(line, " (cached)"))
	if len(f) < 2 {
		return 0, fmt.Errorf("progress: bad line %q", line)
	}
	d, err := time.ParseDuration(f[len(f)-1])
	if err != nil {
		return 0, fmt.Errorf("progress: bad line %q: %w", line, err)
	}
	return d, nil
}
