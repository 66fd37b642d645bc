package main

import (
	"fmt"
	"time"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/program"
	"lukewarm/internal/serverless"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// invokeRound is one round of invoke-lukewarm: a single-core server with
// Jukebox on hosts the three per-language representatives, and every
// invocation is preceded by a full microarchitectural flush, the paper's
// interleaved baseline (Sec. 5.2).
type invokeRound struct {
	seed          uint64
	warmup, perFn int
	srv           *serverless.Server
	insts         []*serverless.Instance
	start         uint64 // first invocation id, picked by the seed
	before        coreCounters
	results       []cpu.RunResult
	nsPerInstr    []float64
}

func newInvokeRound(seed uint64, sz size) round {
	return &invokeRound{seed: seed, warmup: sz.invokeWarmup, perFn: sz.invokePerFn}
}

// setup builds the programs and the server, then runs the untimed warm-up
// invocations that record each instance's first Jukebox metadata.
func (r *invokeRound) setup() error {
	jb := core.DefaultConfig()
	srv, err := serverless.NewErr(serverless.Config{Jukebox: &jb})
	if err != nil {
		return err
	}
	r.srv = srv
	r.start = program.Mix(r.seed, 0x1e4a) % (1 << 20)
	for _, name := range workload.Representatives() {
		w, err := workload.ByName(name)
		if err != nil {
			return err
		}
		inst := srv.Deploy(w)
		inst.Invocations = r.start
		r.insts = append(r.insts, inst)
	}
	for i := 0; i < r.warmup; i++ {
		for _, inst := range r.insts {
			srv.FlushMicroarch()
			if err := faults.Audit(srv.Invoke(inst)); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	r.before = readCore(srv.Core, r.insts)
	return nil
}

// run times perFn flush+invoke operations per function, interleaved across
// the functions.
func (r *invokeRound) run(tr *tracer, parent int) {
	r.results = make([]cpu.RunResult, 0, r.perFn*len(r.insts))
	r.nsPerInstr = make([]float64, 0, cap(r.results))
	for i := 0; i < r.perFn; i++ {
		for _, inst := range r.insts {
			op := int64(len(r.results))
			sp := tr.begin("invoke", parent, op)
			t0 := time.Now()
			f := tr.begin("serverless.FlushMicroarch", sp, op)
			r.srv.FlushMicroarch()
			tr.end(f)
			v := tr.begin("serverless.Invoke", sp, op)
			res := r.srv.Invoke(inst)
			tr.end(v)
			d := time.Since(t0)
			tr.end(sp)
			r.results = append(r.results, res)
			r.nsPerInstr = append(r.nsPerInstr, ratio(float64(d), float64(res.Instrs)))
		}
	}
}

func (r *invokeRound) result() roundResult {
	out := roundResult{ops: len(r.results), work: len(r.results), samples: r.nsPerInstr}
	var stack topdown.Stack
	for _, res := range r.results {
		if faults.Audit(res) != nil {
			out.failed++
		}
		out.instrs += res.Instrs
		stack.Merge(res.Stack)
	}
	d := readCore(r.srv.Core, r.insts).minus(r.before)
	out.counts = []count{
		{"cpu.instrs", float64(out.instrs)},
		{"cpu.cycles", float64(d.cycles)},
		{"cpu.fetch_latency_frac", ratio(stack.Cycles[topdown.FetchLatency], stack.Total())},
		{"mem.l1i_misses", float64(d.l1iMisses)},
		{"mem.l2_misses", float64(d.l2Misses)},
		{"mem.llc_misses", float64(d.llcMisses)},
		{"mem.dram_bytes", float64(d.dramBytes)},
		{"vm.itlb_misses", float64(d.itlbMisses)},
		{"vm.page_walks", float64(d.walks)},
		{"core.replay_prefetches", float64(d.replayPrefetches)},
		{"core.prefetch_used_frac", ratio(float64(d.l2PrefUsed), float64(d.l2PrefFills))},
	}
	return out
}

// walk is the traced run's walker-only pass: the program layer alone
// generating the instruction streams of this round's invocation ids.
func (r *invokeRound) walk(tr *tracer, parent int) (instrs uint64, d time.Duration) {
	buf := make([]program.Instr, 256)
	var inv program.Invocation
	for i := 0; i < r.perFn; i++ {
		for fi, inst := range r.insts {
			id := r.start + uint64(r.warmup+i)
			sp := tr.begin("program.walk", parent, int64(i*len(r.insts)+fi))
			t0 := time.Now()
			inst.Workload.Program.ResetInvocation(&inv, id)
			for {
				n := inv.NextBatch(buf)
				if n == 0 {
					break
				}
				instrs += uint64(n)
			}
			d += time.Since(t0)
			tr.end(sp)
		}
	}
	return instrs, d
}

// coreCounters are the cumulative simulated counters of one core and its
// instances' Jukeboxes.
type coreCounters struct {
	cycles                                    mem.Cycle
	l1iMisses, l2Misses, llcMisses            uint64
	dramBytes                                 uint64
	itlbMisses, walks                         uint64
	replayPrefetches, l2PrefUsed, l2PrefFills uint64
}

func readCore(c *cpu.Core, insts []*serverless.Instance) coreCounters {
	h := c.Hier
	out := coreCounters{
		cycles:      c.Now(),
		l1iMisses:   both(h.L1I.Stats.DemandMisses),
		l2Misses:    both(h.L2.Stats.DemandMisses),
		llcMisses:   both(h.LLC.Stats.DemandMisses),
		dramBytes:   h.DRAM.TotalBytes(),
		itlbMisses:  c.MMU.ITLB.Stats.Misses,
		walks:       c.MMU.Walker.Walks,
		l2PrefUsed:  both(h.L2.Stats.PrefetchUsed),
		l2PrefFills: both(h.L2.Stats.PrefetchFills),
	}
	for _, inst := range insts {
		out.replayPrefetches += inst.Jukebox.Stats.ReplayPrefetches
	}
	return out
}

// both sums a per-kind counter over instruction and data traffic.
func both(a [2]uint64) uint64 { return a[mem.Instr] + a[mem.Data] }

func (a coreCounters) minus(b coreCounters) coreCounters {
	return coreCounters{
		cycles:           a.cycles - b.cycles,
		l1iMisses:        a.l1iMisses - b.l1iMisses,
		l2Misses:         a.l2Misses - b.l2Misses,
		llcMisses:        a.llcMisses - b.llcMisses,
		dramBytes:        a.dramBytes - b.dramBytes,
		itlbMisses:       a.itlbMisses - b.itlbMisses,
		walks:            a.walks - b.walks,
		replayPrefetches: a.replayPrefetches - b.replayPrefetches,
		l2PrefUsed:       a.l2PrefUsed - b.l2PrefUsed,
		l2PrefFills:      a.l2PrefFills - b.l2PrefFills,
	}
}
