package runner

import (
	"fmt"

	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/mem"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/topdown"
	"lukewarm/internal/workload"
)

// SchemaVersion is folded into every cache key. Bump it whenever the
// Measurement layout or the simulator's semantics change, so stale on-disk
// cache entries can never be mistaken for current results — invalidation by
// construction, no cleanup pass needed.
//
// v2: Measurement gained the Traffic field (scheduling experiments).
// v3: Measurement gained the Cluster field and TrafficSummary gained
// Offered/Failed (fleet simulation).
// v4: Cells gained the Reap field and Measurement the Reap stats (REAP
// working-set restore; the data-access observer also shifts prefetcher
// composition semantics).
// v5: TrafficSummary gained the readiness-tier partition and the predictive
// pre-warm ledger (internal/predict).
// v6: keys render a job's whole value under its type name (Key) instead of
// a hand-written field list plus a variant tag, and Measurement lost its
// Traffic and Cluster fields: traffic and fleet jobs cache their summaries
// as results of their own type.
const SchemaVersion = 6

// Mode selects the execution regime of a measurement cell.
type Mode uint8

// The paper's two regimes (Sec. 2.3).
const (
	// Reference: back-to-back invocations, fully warm.
	Reference Mode = iota
	// Lukewarm: full microarchitectural flush before every invocation — the
	// interleaved/baseline configuration.
	Lukewarm
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Reference {
		return "ref"
	}
	return "lukewarm"
}

// Cell is the standard job: which workload runs on which platform under
// which regime, and how much of it is measured. Cells are pure values — Run
// builds a fresh server from the content, so two cells with equal content
// always produce equal measurements. That property is what makes them
// content-addressable.
type Cell struct {
	// Workload names the function (workload.ByName).
	Workload string
	// CPU is the platform configuration.
	CPU cpu.Config
	// Jukebox, when non-nil, deploys the instance with a Jukebox.
	Jukebox *core.Config
	// Reap, when non-nil, deploys the instance with a REAP working-set
	// recorder/restorer (internal/reap).
	Reap *reap.Config
	// Perfect services instruction fetches at L1 latency (Fig. 10's bound).
	Perfect bool
	// Mode is the execution regime.
	Mode Mode
	// Warmup and Measure are the unmeasured and measured invocation counts.
	Warmup, Measure int
	// Audit cross-checks every measured invocation against the faults
	// package's conservation invariants.
	Audit bool
}

// Label names the cell in progress lines and telemetry.
func (c Cell) Label() string {
	tag := c.Mode.String()
	switch {
	case c.Reap != nil && c.Jukebox != nil:
		tag = "reap+jukebox"
	case c.Reap != nil:
		tag = "reap"
	case c.Jukebox != nil:
		tag = "jukebox"
	case c.Perfect:
		tag = "perfect"
	}
	return c.Workload + "/" + tag
}

// Measurement aggregates one measurement window, the result of a Cell and of
// most custom measurement jobs. Every field is a plain exported value, so it
// round-trips through the disk cache's gob encoding unchanged.
type Measurement struct {
	Stack  topdown.Stack
	Instrs uint64
	Cycles mem.Cycle
	L1I    mem.CacheStats
	L2     mem.CacheStats
	LLC    mem.CacheStats
	DRAM   map[mem.TrafficClass]uint64 // bytes by class
	JB     core.Stats
	// Reap holds the instance's REAP recorder/restorer counters; zero for
	// cells without a Reap configuration.
	Reap reap.Stats
	// FirstInvCycles is the first measured invocation's cycle count, the
	// start latency the coldstart comparator surfaces.
	FirstInvCycles mem.Cycle
	// MetaBytes is the per-instance metadata cost a custom job chose to
	// report (comparator prefetchers); zero for standard cells, whose
	// Jukebox cost is in JB.
	MetaBytes int
}

// CPI reports the window's cycles per instruction.
func (m Measurement) CPI() float64 {
	if m.Instrs == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instrs)
}

// MPKI reports misses per kilo-instruction from a cache's counters.
func (m Measurement) MPKI(s mem.CacheStats, k mem.Kind) float64 {
	if m.Instrs == 0 {
		return 0
	}
	return float64(s.DemandMisses[k]) / float64(m.Instrs) * 1000
}

// Run executes the cell from scratch: a fresh single-purpose server, one
// deployed instance, warmup then measurement.
func (c Cell) Run() (Measurement, error) {
	srv, inst, err := c.Deploy()
	if err != nil {
		return Measurement{}, err
	}
	return MeasureInstance(srv, inst, c.Mode, c.Warmup, c.Measure, c.Audit)
}

// Deploy builds the cell's single-purpose server and deploys its workload.
// Custom jobs that embed a Cell start from it, then prepare and measure the
// instance their own way.
func (c Cell) Deploy() (*serverless.Server, *serverless.Instance, error) {
	w, err := workload.ByName(c.Workload)
	if err != nil {
		return nil, nil, err
	}
	srv := serverless.New(serverless.Config{CPU: c.CPU, Jukebox: c.Jukebox, Reap: c.Reap, PerfectICache: c.Perfect})
	return srv, srv.Deploy(w), nil
}

// MeasureInstance runs warmup then measure invocations of inst under md on
// srv and returns the aggregated measurement window. With audit set, every
// measured invocation, the instance's ledgers and, in the lukewarm regime,
// the window's cache counters are checked against the faults package's
// conservation invariants.
func MeasureInstance(srv *serverless.Server, inst *serverless.Instance, md Mode, warmup, measure int, audit bool) (Measurement, error) {
	invoke := func() cpu.RunResult {
		if md == Lukewarm {
			srv.FlushMicroarch()
		}
		return srv.Invoke(inst)
	}
	for i := 0; i < warmup; i++ {
		invoke()
	}
	out, err := MeasureWindow(srv, inst, measure, invoke, audit)
	if err != nil {
		return out, err
	}
	// Cache-counter conservation holds within a window whenever the window
	// starts from flushed caches (the lukewarm regime); reference windows
	// legitimately carry pre-reset prefetched lines across the stats reset.
	if audit && md == Lukewarm {
		for _, c := range []struct {
			name  string
			stats mem.CacheStats
		}{{"L1I", out.L1I}, {"L2", out.L2}, {"LLC", out.LLC}} {
			if err := faults.AuditCache(c.name, c.stats); err != nil {
				return out, fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
	}
	return out, nil
}

// MeasureWindow resets the counters of srv and inst, runs n invocations
// through invoke, and returns the window's aggregated measurement. Custom
// jobs that prepare each invocation their own way (evict, idle, flush)
// call it after their own warm-up. With audit set, every invocation and the
// instance's Jukebox and REAP ledgers are checked against the faults
// package's invariants.
func MeasureWindow(srv *serverless.Server, inst *serverless.Instance, n int, invoke func() cpu.RunResult, audit bool) (Measurement, error) {
	srv.Core.Hier.ResetStats()
	srv.Core.MMU.ResetStats()
	srv.Core.BP.ResetStats()
	srv.Core.BTB.ResetStats()
	if inst.Jukebox != nil {
		inst.Jukebox.ResetStats()
	}
	if inst.Reap != nil {
		inst.Reap.ResetStats()
	}

	var out Measurement
	for i := 0; i < n; i++ {
		res := invoke()
		if audit {
			if err := faults.Audit(res); err != nil {
				return out, fmt.Errorf("%s invocation %d: %w", inst.Workload.Name, i, err)
			}
		}
		if i == 0 {
			out.FirstInvCycles = res.Cycles
		}
		out.Stack.Merge(res.Stack)
		out.Instrs += res.Instrs
		out.Cycles += res.Cycles
	}
	hier := srv.Core.Hier
	hier.DrainUnusedPrefetches()
	out.L1I = hier.L1I.Stats
	out.L2 = hier.L2.Stats
	out.LLC = hier.LLC.Stats
	out.DRAM = map[mem.TrafficClass]uint64{}
	for _, cls := range []mem.TrafficClass{mem.TrafficDemand, mem.TrafficPrefetch,
		mem.TrafficMetadataRecord, mem.TrafficMetadataReplay, mem.TrafficWriteback} {
		out.DRAM[cls] = hier.DRAM.Bytes(cls)
	}
	if inst.Jukebox != nil {
		out.JB = inst.Jukebox.Stats
		if audit {
			if err := faults.AuditJukebox(out.JB); err != nil {
				return out, fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
	}
	if inst.Reap != nil {
		out.Reap = inst.Reap.Stats
		if audit {
			if err := faults.AuditReap(out.Reap); err != nil {
				return out, fmt.Errorf("%s: %w", inst.Workload.Name, err)
			}
		}
	}
	return out, nil
}
