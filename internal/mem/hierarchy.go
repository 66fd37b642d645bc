package mem

// HierarchyConfig assembles the per-level cache configurations of one
// simulated platform. Table 1 of the paper defines the Skylake-like setup;
// Sec. 5.6 the Broadwell-like one.
type HierarchyConfig struct {
	L1I, L1D, L2, LLC Config
	DRAM              DRAMConfig
	// L1DNextLine enables the next-line prefetcher on the L1-D (Table 1).
	L1DNextLine bool
}

// Validate checks every level's geometry. Errors wrap cfgerr.ErrBadConfig.
func (c HierarchyConfig) Validate() error {
	for _, lvl := range []Config{c.L1I, c.L1D, c.L2, c.LLC} {
		if err := lvl.Validate(); err != nil {
			return err
		}
	}
	return c.DRAM.Validate()
}

// SkylakeHierarchy returns the Table 1 configuration: 32 KB L1-I/L1-D,
// 1 MB private L2, 8 MB shared LLC.
func SkylakeHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", SizeBytes: 32 << 10, Ways: 8, HitLatency: 4, MSHRs: 10},
		L1D:         Config{Name: "L1D", SizeBytes: 32 << 10, Ways: 8, HitLatency: 12, MSHRs: 10},
		L2:          Config{Name: "L2", SizeBytes: 1 << 20, Ways: 8, HitLatency: 36, MSHRs: 32},
		LLC:         Config{Name: "LLC", SizeBytes: 8 << 20, Ways: 16, HitLatency: 36, MSHRs: 32},
		DRAM:        DefaultDRAMConfig(),
		L1DNextLine: true,
	}
}

// BroadwellHierarchy returns the Sec. 5.6 configuration, which also matches
// the real-hardware host of the characterization study: 32 KB L1s, 256 KB
// L2, 8 MB LLC slice. The smaller L2 has a shorter hit latency.
func BroadwellHierarchy() HierarchyConfig {
	h := SkylakeHierarchy()
	h.L2 = Config{Name: "L2", SizeBytes: 256 << 10, Ways: 8, HitLatency: 12, MSHRs: 20}
	// Broadwell's ring-bus LLC is slower than Skylake's mesh slice.
	h.LLC.HitLatency = 42
	return h
}

// CharacterizationHierarchy returns the CloudLab xl170 host of Sec. 4.1:
// Broadwell with a 25 MB LLC (within power-of-two set constraints we use
// 16 MB, the closest realizable size; reference working sets still fit).
func CharacterizationHierarchy() HierarchyConfig {
	h := BroadwellHierarchy()
	h.LLC = Config{Name: "LLC", SizeBytes: 16 << 20, Ways: 16, HitLatency: 36, MSHRs: 32}
	return h
}

// pfBufEntry is one line in the instruction prefetch buffer.
type pfBufEntry struct {
	addr  uint64
	ready Cycle
	valid bool
}

// PFBufStats counts instruction-prefetch-buffer activity.
type PFBufStats struct {
	Fills          uint64
	Hits           uint64
	EvictionUnused uint64
}

// Hierarchy wires the caches and DRAM together and implements the demand
// and prefetch access paths.
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	DRAM              *DRAM
	cfg               HierarchyConfig
	lastDataBlock     uint64
	// Per-level hit latencies and the in-flight-prefetch wait cap, hoisted
	// out of the Config structs at construction so the demand path reads
	// them from the Hierarchy itself.
	l1iLat, l1dLat, l2Lat, llcLat Cycle
	maxWait                       Cycle
	// PerfectL1I services every instruction fetch at L1 hit latency,
	// modeling the paper's "Perfect I-cache" upper bound (Sec. 5.2).
	PerfectL1I bool

	// pfBuf is a small fully-associative FIFO instruction prefetch buffer
	// probed in parallel with the L1-I, used by stream prefetchers (PIF) to
	// avoid polluting the L1-I with speculative lines. Sized by
	// EnablePrefetchBuffer.
	pfBuf    []pfBufEntry
	pfBufPos int
	PFBuf    PFBufStats
}

// NewHierarchy builds a hierarchy from cfg with its own LLC and DRAM.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	return NewSharedHierarchy(cfg, NewCache(cfg.LLC), NewDRAM(cfg.DRAM))
}

// NewSharedHierarchy builds the private levels of one core around a shared
// LLC and memory controller — the multi-core organization of the paper's
// host (private L1s and L2, shared LLC, one memory system).
func NewSharedHierarchy(cfg HierarchyConfig, llc *Cache, dram *DRAM) *Hierarchy {
	return &Hierarchy{
		L1I:     NewCache(cfg.L1I),
		L1D:     NewCache(cfg.L1D),
		L2:      NewCache(cfg.L2),
		LLC:     llc,
		DRAM:    dram,
		cfg:     cfg,
		l1iLat:  cfg.L1I.HitLatency,
		l1dLat:  cfg.L1D.HitLatency,
		l2Lat:   cfg.L2.HitLatency,
		llcLat:  cfg.LLC.HitLatency,
		maxWait: cfg.L2.HitLatency + cfg.LLC.HitLatency + dram.Config().AccessLatency,
	}
}

// FlushPrivate invalidates only the core-private levels (L1s, L2, prefetch
// buffer), leaving the shared LLC to the server-level policy.
func (h *Hierarchy) FlushPrivate() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.FlushPrefetchBuffer()
	h.lastDataBlock = 0
}

// Config returns the hierarchy configuration in effect.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// FetchInstr performs a demand instruction fetch of the block containing
// paddr at time now.
func (h *Hierarchy) FetchInstr(now Cycle, paddr uint64) Result {
	if h.PerfectL1I {
		return Result{Latency: h.l1iLat, Level: LevelL1}
	}
	return h.demand(now, paddr, Instr, false)
}

// AccessData performs a demand data access at time now. write marks stores.
func (h *Hierarchy) AccessData(now Cycle, paddr uint64, write bool) Result {
	res := h.demand(now, paddr, Data, write)
	if h.cfg.L1DNextLine {
		h.nextLinePrefetch(now, paddr)
	}
	return res
}

// demand walks the hierarchy for one access.
func (h *Hierarchy) demand(now Cycle, paddr uint64, k Kind, write bool) Result {
	// A demand hit on a still-in-flight prefetch waits for the data, but
	// never longer than the rest of the miss path it replaced (the demand
	// would otherwise have fetched the line itself): the cap shrinks by the
	// hit latencies already paid at each level.
	maxWait := h.maxWait
	l1 := h.L1I
	lat := h.l1iLat
	if k == Data {
		l1 = h.L1D
		lat = h.l1dLat
	}
	if out := l1.access(now, paddr, k, write); out.hit {
		return Result{Latency: lat + min(out.extraWait, maxWait), Level: LevelL1}
	}

	// L1-I misses probe the prefetch buffer in parallel with the L2; the
	// buffer serves the demand only when it is the faster source (an
	// L2-resident copy whose data arrives sooner wins otherwise).
	if k == Instr && len(h.pfBuf) > 0 {
		if wait, hit := h.pfBufTake(now, paddr); hit {
			l2Wait, l2Present := h.L2.probeWait(now, paddr)
			if !l2Present || wait <= l2Wait+h.l2Lat {
				h.PFBuf.Hits++
				l1.fill(now, paddr, k, false, 0)
				return Result{Latency: lat + 2 + min(wait, maxWait), Level: LevelL1}
			}
		}
	}

	// L1 miss: look up the unified L2.
	if out := h.L2.access(now+lat, paddr, k, false); out.hit {
		cap := maxWait - h.l2Lat
		total := lat + h.l2Lat + min(out.extraWait, cap)
		l1.fill(now, paddr, k, false, 0)
		return Result{Latency: total, Level: LevelL2, L2PrefetchHit: out.prefetchHit}
	}
	lat += h.l2Lat

	// L2 miss: look up the shared LLC.
	if out := h.LLC.access(now+lat, paddr, k, false); out.hit {
		cap := maxWait - h.l2Lat - h.llcLat
		total := lat + h.llcLat + min(out.extraWait, cap)
		h.fillOnPath(now, paddr, k, write)
		return Result{Latency: total, Level: LevelLLC, L2Miss: true}
	}
	lat += h.llcLat

	// LLC miss: go to memory.
	lat += h.DRAM.Access(now+lat, TrafficDemand)
	if v := h.LLC.fill(now, paddr, k, false, 0); v.valid && v.dirty {
		h.DRAM.Access(now, TrafficWriteback)
	}
	h.fillOnPath(now, paddr, k, write)
	return Result{Latency: lat, Level: LevelMem, L2Miss: true}
}

// fillOnPath installs the block into L2 and the appropriate L1, accounting
// for dirty writebacks reaching memory from LLC evictions.
func (h *Hierarchy) fillOnPath(now Cycle, paddr uint64, k Kind, write bool) {
	if v := h.L2.fill(now, paddr, k, false, 0); v.valid && v.dirty {
		// Dirty L2 victims merge into the LLC; if absent there, install and
		// carry the dirty bit so the data eventually writes back to memory.
		if h.LLC.Probe(v.addr) {
			h.LLC.markDirty(v.addr)
		} else {
			if lv := h.LLC.fill(now, v.addr, v.kind, false, 0); lv.valid && lv.dirty {
				h.DRAM.Access(now, TrafficWriteback)
			}
			h.LLC.markDirty(v.addr)
		}
	}
	l1 := h.L1I
	if k == Data {
		l1 = h.L1D
	}
	v := l1.fill(now, paddr, k, false, 0)
	if write {
		l1.markDirty(paddr)
	}
	if v.valid && v.dirty {
		if !h.L2.Probe(v.addr) {
			h.L2.fill(now, v.addr, v.kind, false, 0)
		}
		h.L2.markDirty(v.addr)
	}
}

// nextLinePrefetch implements the simple L1-D next-line prefetcher from
// Table 1: on a demand access to a new block, pull in the sequentially next
// block if it is not already in the L1-D.
func (h *Hierarchy) nextLinePrefetch(now Cycle, paddr uint64) {
	blk := BlockAddr(paddr)
	if blk == h.lastDataBlock {
		return
	}
	h.lastDataBlock = blk
	next := blk + LineSize
	if h.L1D.Probe(next) {
		return
	}
	ready := now + h.l1dLat
	switch {
	case h.L2.Probe(next):
		ready += h.l2Lat
	case h.LLC.Probe(next):
		ready += h.l2Lat + h.llcLat
		h.L2.fill(now, next, Data, true, ready)
	default:
		ready += h.l2Lat + h.llcLat + h.DRAM.Access(now, TrafficPrefetch)
		h.LLC.fill(now, next, Data, true, ready)
		h.L2.fill(now, next, Data, true, ready)
	}
	h.L1D.fill(now, next, Data, true, ready)
}

// PrefetchIntoL2 installs the block containing paddr into the L2 (and LLC on
// the way) on behalf of an instruction prefetcher, returning the cycle at
// which the data is available in the L2. cls labels the DRAM traffic.
// If the block is already L2-resident the call is a no-op returning now.
func (h *Hierarchy) PrefetchIntoL2(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	if h.L2.Probe(paddr) {
		return now
	}
	ready := now
	if h.LLC.Probe(paddr) {
		ready += h.cfg.LLC.HitLatency
	} else {
		ready += h.cfg.LLC.HitLatency + h.DRAM.Access(now, cls)
		h.LLC.fill(now, paddr, Instr, true, ready)
	}
	h.L2.fill(now, paddr, Instr, true, ready)
	return ready
}

// EnablePrefetchBuffer sizes the instruction prefetch buffer (n lines);
// n <= 0 disables it.
func (h *Hierarchy) EnablePrefetchBuffer(n int) {
	if n <= 0 {
		h.pfBuf = nil
		return
	}
	h.pfBuf = make([]pfBufEntry, n)
	h.pfBufPos = 0
}

// pfBufTake removes paddr's block from the prefetch buffer if present,
// returning the residual wait for in-flight data.
func (h *Hierarchy) pfBufTake(now Cycle, paddr uint64) (wait Cycle, hit bool) {
	blk := BlockAddr(paddr)
	for i := range h.pfBuf {
		e := &h.pfBuf[i]
		if e.valid && e.addr == blk {
			e.valid = false
			if e.ready > now {
				wait = e.ready - now
			}
			return wait, true
		}
	}
	return 0, false
}

// PrefetchIntoBuffer stages the block containing paddr in the instruction
// prefetch buffer (stream-prefetcher target), filling L2/LLC on the way as
// the data passes through. A FIFO victim that was never used counts as an
// overprediction. Returns the ready cycle; a no-op if the block is already
// in the L1-I or the buffer.
func (h *Hierarchy) PrefetchIntoBuffer(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	if len(h.pfBuf) == 0 {
		return h.PrefetchIntoL1I(now, paddr, cls)
	}
	blk := BlockAddr(paddr)
	if h.L1I.Probe(blk) {
		return now
	}
	for i := range h.pfBuf {
		if h.pfBuf[i].valid && h.pfBuf[i].addr == blk {
			return h.pfBuf[i].ready
		}
	}
	ready := now
	switch {
	case h.L2.Probe(blk):
		ready += h.cfg.L2.HitLatency
	case h.LLC.Probe(blk):
		ready += h.cfg.L2.HitLatency + h.cfg.LLC.HitLatency
		h.L2.fill(now, blk, Instr, true, ready)
	default:
		ready += h.cfg.L2.HitLatency + h.cfg.LLC.HitLatency + h.DRAM.Access(now, cls)
		h.LLC.fill(now, blk, Instr, true, ready)
		h.L2.fill(now, blk, Instr, true, ready)
	}
	v := &h.pfBuf[h.pfBufPos]
	if v.valid {
		h.PFBuf.EvictionUnused++
	}
	*v = pfBufEntry{addr: blk, ready: ready, valid: true}
	h.pfBufPos = (h.pfBufPos + 1) % len(h.pfBuf)
	h.PFBuf.Fills++
	return ready
}

// FlushPrefetchBuffer invalidates the buffer, counting unused entries as
// overpredicted.
func (h *Hierarchy) FlushPrefetchBuffer() {
	for i := range h.pfBuf {
		if h.pfBuf[i].valid {
			h.PFBuf.EvictionUnused++
			h.pfBuf[i].valid = false
		}
	}
}

// PrefetchIntoLLC installs the block containing paddr into the LLC only,
// the target of whole-cache context-restoration schemes (RECAP-style).
// Returns the ready cycle; a no-op when already LLC-resident.
func (h *Hierarchy) PrefetchIntoLLC(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	return h.PrefetchLineIntoLLC(now, paddr, Data, cls)
}

// PrefetchLineIntoLLC is PrefetchIntoLLC with an explicit line kind, so
// page-granular restore engines (internal/reap) can install instruction
// pages as Instr lines and keep the per-kind cache stats honest. Returns
// now unchanged when the line is already LLC-resident — the probe is what
// makes restore a delta on lukewarm starts.
func (h *Hierarchy) PrefetchLineIntoLLC(now Cycle, paddr uint64, k Kind, cls TrafficClass) Cycle {
	if h.LLC.Probe(paddr) {
		return now
	}
	ready := now + h.DRAM.Access(now, cls)
	h.LLC.fill(now, paddr, k, true, ready)
	return ready
}

// PrefetchLineIntoLLCBlind is PrefetchLineIntoLLC without the residency
// probe: a software restore engine (REAP) streams recorded pages from the
// snapshot regardless of what is already cache-resident, so every line
// occupies prefetch bandwidth even when redundant — redundant transfers
// push the useful installs' ready times later, which is exactly the
// restore's lukewarm-start penalty. A redundant fill refreshes the resident
// line without resetting its readiness.
func (h *Hierarchy) PrefetchLineIntoLLCBlind(now Cycle, paddr uint64, k Kind, cls TrafficClass) Cycle {
	ready := now + h.DRAM.Access(now, cls)
	h.LLC.fill(now, paddr, k, true, ready)
	return ready
}

// PrefetchIntoL1I installs the block containing paddr into the L1-I (used by
// the PIF comparator, which targets the L1-I). Returns the ready cycle.
func (h *Hierarchy) PrefetchIntoL1I(now Cycle, paddr uint64, cls TrafficClass) Cycle {
	if h.L1I.Probe(paddr) {
		return now
	}
	ready := now
	switch {
	case h.L2.Probe(paddr):
		ready += h.cfg.L2.HitLatency
	case h.LLC.Probe(paddr):
		ready += h.cfg.L2.HitLatency + h.cfg.LLC.HitLatency
		h.L2.fill(now, paddr, Instr, true, ready)
	default:
		ready += h.cfg.L2.HitLatency + h.cfg.LLC.HitLatency + h.DRAM.Access(now, cls)
		h.LLC.fill(now, paddr, Instr, true, ready)
		h.L2.fill(now, paddr, Instr, true, ready)
	}
	h.L1I.fill(now, paddr, Instr, true, ready)
	return ready
}

// FlushAll invalidates every cache, modeling total obliteration of on-chip
// state between invocations (the paper's simulated interleaving baseline).
func (h *Hierarchy) FlushAll() {
	h.L1I.Flush()
	h.L1D.Flush()
	h.L2.Flush()
	h.LLC.Flush()
	h.FlushPrefetchBuffer()
	h.lastDataBlock = 0
}

// ThrashFraction partially evicts every cache, modeling a bounded amount of
// interleaved foreign execution (Fig. 1's sub-saturation IATs). frac is the
// per-line eviction probability; rng supplies deterministic randomness.
func (h *Hierarchy) ThrashFraction(frac float64, rng func() uint64) {
	h.L1I.EvictFraction(frac, rng)
	h.L1D.EvictFraction(frac, rng)
	h.L2.EvictFraction(frac, rng)
	h.LLC.EvictFraction(frac, rng)
}

// ResetStats zeroes all counters without disturbing cache contents.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	h.LLC.ResetStats()
	h.DRAM.ResetStats()
	h.PFBuf = PFBufStats{}
}

// DrainUnusedPrefetches finalizes overprediction accounting in the prefetch
// target caches at the end of a measurement window.
func (h *Hierarchy) DrainUnusedPrefetches() {
	h.L1I.DrainUnusedPrefetches()
	h.L2.DrainUnusedPrefetches()
	h.LLC.DrainUnusedPrefetches()
}
