package mem

import (
	"fmt"
	"math/bits"

	"lukewarm/internal/cfgerr"
)

// The cache's per-line state is stored flat, in parallel arrays, so the hot
// lookup path touches as few host cache lines as possible:
//
//   - tags holds the line tag (8 B/way), with invalidTag marking empty ways;
//   - flags holds one byte per line: dirty, prefetched, used, and the fill
//     kind, read on hits and at eviction;
//   - ready (prefetch arrival cycles) is written and read only for
//     prefetched lines, so demand traffic never touches it;
//   - recency packs each set's LRU order into one uint64 — a move-to-front
//     list of 4-bit way ids — replacing a per-line 8 B stamp. Victim choice
//     is identical to stamp-based LRU: stamps only ever encode recency
//     order within a set, and the list preserves exactly that order. Caches
//     wider than 16 ways (the fully-associative differential oracle) fall
//     back to per-line stamps;
//   - setEpoch implements O(1) whole-cache flushes: Flush bumps the cache
//     epoch and each set lazily re-zeroes its tags on its next fill.
//     Flush-time overprediction accounting comes from running counters
//     (liveValid, livePrefUnused) maintained at every fill/use/eviction.
//
// Every observable behavior — stats, LRU victim choice, eviction order,
// per-line RNG draws in EvictFraction — is bit-identical to the original
// struct-per-line implementation; internal/check's LRU differential oracle
// and the golden-figure harness enforce that.

// invalidTag marks an empty way. No real tag collides with it: tags are
// addr>>LineShift and simulated physical addresses are far below 2^58.
const invalidTag = ^uint64(0)

// Flag bits of the per-line flags byte. lineKindData holds the fill Kind
// (Instr=0, Data=1) in bit 3.
const (
	lineDirty = 1 << iota
	linePrefetched
	lineUsed
	lineKindData
)

// flagsKind extracts the fill kind from a flags byte.
func flagsKind(f uint8) Kind { return Kind(f>>3) & 1 }

// maxPackedWays is the widest set the packed recency list covers.
const maxPackedWays = 16

// identityPerm is the initial recency list: way 0 in front, way 15 in back.
const identityPerm = 0xFEDCBA9876543210

// CacheStats aggregates the per-cache counters the experiments read.
type CacheStats struct {
	// DemandAccesses, DemandHits and DemandMisses are indexed by Kind.
	DemandAccesses [numKinds]uint64
	DemandHits     [numKinds]uint64
	DemandMisses   [numKinds]uint64
	// PrefetchFills counts lines installed by a prefetcher, indexed by the
	// traffic kind the prefetcher declared at fill (instruction prefetchers
	// vs. the L1-D next-line prefetcher).
	PrefetchFills [numKinds]uint64
	// PrefetchUsed counts prefetched lines touched by a later demand access
	// (covered misses), by fill kind.
	PrefetchUsed [numKinds]uint64
	// PrefetchLate counts prefetched lines whose first demand use arrived
	// before the prefetch data did (the access stalled for the residue).
	PrefetchLate [numKinds]uint64
	// PrefetchEvictedUnused counts prefetched lines evicted without ever
	// being used (overprediction), by fill kind.
	PrefetchEvictedUnused [numKinds]uint64
	// Evictions counts valid lines displaced by fills.
	Evictions uint64
	// DirtyEvictions counts displaced lines that were dirty.
	DirtyEvictions uint64
}

// DemandMissRate reports misses/accesses for kind k, or 0 with no accesses.
func (s *CacheStats) DemandMissRate(k Kind) float64 {
	if s.DemandAccesses[k] == 0 {
		return 0
	}
	return float64(s.DemandMisses[k]) / float64(s.DemandAccesses[k])
}

// Config describes one cache's geometry and timing.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	HitLatency Cycle
	MSHRs      int
}

// Sets reports the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (LineSize * c.Ways) }

// Validate reports whether the geometry is realizable: positive ways and a
// positive power-of-two set count. Errors wrap cfgerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return cfgerr.New("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	if sets := c.Sets(); sets <= 0 || sets&(sets-1) != 0 {
		return cfgerr.New("cache %s: %d sets is not a positive power of two", c.Name, sets)
	}
	return nil
}

// Cache is a set-associative, LRU, write-back cache. It is a passive array:
// the Hierarchy drives lookups and fills and decides what happens on a miss.
type Cache struct {
	cfg     Config
	sets    int
	ways    int
	setMask uint64
	tags    []uint64 // sets*ways, set-major; invalidTag = empty
	flags   []uint8  // parallel to tags
	ready   []Cycle  // parallel to tags; meaningful while prefetched && !used
	// recency is the packed per-set LRU list (ways <= maxPackedWays);
	// wider caches use the lru stamp array instead.
	recency []uint64
	lru     []uint64
	lruTick uint64
	// setEpoch[s] != epoch means set s has not been touched since the last
	// Flush and its tags are logically all-invalid.
	setEpoch []uint64
	epoch    uint64
	// liveValid counts valid lines; livePrefUnused counts resident
	// prefetched-never-used lines by fill kind. Both fund O(1) Flush.
	liveValid      int
	livePrefUnused [numKinds]uint64
	Stats          CacheStats
}

// NewCache builds a cache from cfg. It panics if the geometry is invalid —
// callers that take cache geometry from user input should call
// Config.Validate first (the serverless facade does).
func NewCache(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("mem: %v", err))
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		setMask:  uint64(sets - 1),
		tags:     make([]uint64, sets*cfg.Ways),
		flags:    make([]uint8, sets*cfg.Ways),
		ready:    make([]Cycle, sets*cfg.Ways),
		setEpoch: make([]uint64, sets),
	}
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
	if cfg.Ways <= maxPackedWays {
		c.recency = make([]uint64, sets)
		for i := range c.recency {
			c.recency[i] = identityPerm
		}
	} else {
		c.lru = make([]uint64, sets*cfg.Ways)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// setIdx lazily resets a flushed set and returns its index. Only mutators
// (fill) call it — lookups bail out on a stale epoch without writing.
//
//lukewarm:hotpath noalloc,inline every fill starts here; inlining keeps the epoch check branch-predictable
func (c *Cache) setIdx(addr uint64) int {
	s := int((addr >> LineShift) & c.setMask)
	if c.setEpoch[s] != c.epoch {
		c.setEpoch[s] = c.epoch
		base := s * c.ways
		t := c.tags[base : base+c.ways]
		for i := range t {
			t[i] = invalidTag
		}
	}
	return s
}

// valid reports whether absolute way index i holds a live line, without
// materializing lazily flushed sets.
func (c *Cache) valid(i int) bool {
	return c.setEpoch[i/c.ways] == c.epoch && c.tags[i] != invalidTag
}

func tagOf(addr uint64) uint64 { return addr >> LineShift }

// findWay returns the set index and absolute way index of addr, or way -1.
// It never writes: a set not touched since the last Flush is simply a miss.
//
//lukewarm:hotpath noalloc,inline the tag scan runs once per simulated memory reference
func (c *Cache) findWay(addr uint64) (int, int) {
	s := int((addr >> LineShift) & c.setMask)
	if c.setEpoch[s] != c.epoch {
		return s, -1
	}
	tag := tagOf(addr)
	base := s * c.ways
	t := c.tags[base : base+c.ways]
	for i := range t {
		if t[i] == tag {
			return s, base + i
		}
	}
	return s, -1
}

// touch moves way w of set s to the front of the recency order (the packed
// list, or a fresh stamp for wide caches).
//
//lukewarm:hotpath noalloc,noescape the PR 9 SWAR recency update must stay branch-light and allocation-free
func (c *Cache) touch(s, w int) {
	if c.recency == nil {
		c.lruTick++
		c.lru[s*c.ways+w] = c.lruTick
		return
	}
	l := c.recency[s]
	uw := uint64(w)
	if l&0xF == uw {
		return // already most recent
	}
	// Locate w's nibble with a SWAR zero-scan: x has exactly one zero nibble
	// (the list is a permutation), and the borrow in the subtract can only
	// produce spurious high bits above it, so the lowest set bit is exact.
	x := l ^ uw*0x1111111111111111
	m := (x - 0x1111111111111111) &^ x & 0x8888888888888888
	pos := uint(bits.TrailingZeros64(m)) &^ 3
	lowMask := uint64(1)<<pos - 1
	c.recency[s] = (l&lowMask)<<4 | l&^(uint64(1)<<(pos+4)-1) | uw
}

// Probe reports whether addr is present, without touching LRU or counters.
func (c *Cache) Probe(addr uint64) bool {
	_, i := c.findWay(addr)
	return i >= 0
}

// accessOutcome describes a demand lookup.
type accessOutcome struct {
	hit         bool
	prefetchHit bool  // hit on a prefetched, not-yet-used line
	extraWait   Cycle // residual wait for an in-flight prefetch
}

// access performs a demand lookup for addr at time now, updating LRU and
// demand counters.
//
//lukewarm:hotpath noalloc,noescape every demand reference at every cache level lands here
func (c *Cache) access(now Cycle, addr uint64, k Kind, write bool) accessOutcome {
	c.Stats.DemandAccesses[k]++
	s, i := c.findWay(addr)
	if i < 0 {
		c.Stats.DemandMisses[k]++
		return accessOutcome{}
	}
	c.touch(s, i-s*c.ways)
	f := c.flags[i]
	out := accessOutcome{hit: true}
	if f&(linePrefetched|lineUsed) == linePrefetched {
		out.prefetchHit = true
		fk := flagsKind(f)
		c.Stats.PrefetchUsed[fk]++
		c.livePrefUnused[fk]--
		if r := c.ready[i]; r > now {
			out.extraWait = r - now
			c.Stats.PrefetchLate[fk]++
		}
	}
	nf := f | lineUsed
	if write {
		nf |= lineDirty
	}
	if nf != f {
		c.flags[i] = nf
	}
	c.Stats.DemandHits[k]++
	return out
}

// victim describes a line displaced by a fill.
type victim struct {
	valid bool
	dirty bool
	addr  uint64
	kind  Kind
}

// fill installs addr, evicting the LRU way if needed. prefetched marks
// prefetcher-installed lines; ready is when in-flight data arrives (demand
// fills pass now).
//
//lukewarm:hotpath noalloc,noescape miss handling fills on every level; the victim struct must stay on the stack
func (c *Cache) fill(now Cycle, addr uint64, k Kind, prefetched bool, ready Cycle) victim {
	tag := tagOf(addr)
	s := c.setIdx(addr)
	base := s * c.ways
	t := c.tags[base : base+c.ways]
	// One pass: detect an already-present line (e.g., a prefetch raced a
	// demand fill, which refreshes without a recency touch) while noting
	// the first invalid way.
	firstInvalid := -1
	for i := range t {
		switch t[i] {
		case tag:
			if !prefetched {
				f := c.flags[base+i]
				if f&(linePrefetched|lineUsed) == linePrefetched {
					c.livePrefUnused[flagsKind(f)]--
				}
				c.flags[base+i] = f | lineUsed
			}
			return victim{}
		case invalidTag:
			if firstInvalid < 0 {
				firstInvalid = i
			}
		}
	}
	// Pick the first invalid way, else the LRU way.
	w := firstInvalid
	if w < 0 {
		if c.recency != nil {
			w = int(c.recency[s] >> (4 * (c.ways - 1)) & 0xF)
		} else {
			w = 0
			for i := 1; i < c.ways; i++ {
				if c.lru[base+i] < c.lru[base+w] {
					w = i
				}
			}
		}
	}
	vi := base + w
	var v victim
	if c.tags[vi] != invalidTag {
		// The victim's block address is reconstructed from its tag; the set
		// index is implied by the set being filled.
		f := c.flags[vi]
		v = victim{valid: true, dirty: f&lineDirty != 0, kind: flagsKind(f),
			addr: c.tags[vi] << LineShift}
		c.Stats.Evictions++
		if v.dirty {
			c.Stats.DirtyEvictions++
		}
		if f&(linePrefetched|lineUsed) == linePrefetched {
			c.Stats.PrefetchEvictedUnused[v.kind]++
			c.livePrefUnused[v.kind]--
		}
		c.liveValid--
	}
	c.tags[vi] = tag
	c.liveValid++
	nf := lineUsed | uint8(k)<<3
	if prefetched {
		nf = linePrefetched | uint8(k)<<3
		c.ready[vi] = ready
		c.Stats.PrefetchFills[k]++
		c.livePrefUnused[k]++
	}
	c.flags[vi] = nf
	c.touch(s, w)
	return v
}

// DemandAccess performs one standalone demand access: a lookup that fills
// the line on a miss (marking it dirty for writes, as the hierarchy's write
// path does) and reports whether it hit. It drives a single cache outside a
// Hierarchy — the differential oracles in internal/check and
// microbenchmarks use it; the Hierarchy itself sequences access and fill
// separately across levels.
func (c *Cache) DemandAccess(now Cycle, addr uint64, k Kind, write bool) bool {
	if c.access(now, addr, k, write).hit {
		return true
	}
	c.fill(now, addr, k, false, now)
	if write {
		c.markDirty(addr)
	}
	return false
}

// probeWait reports whether addr is resident and, for an in-flight
// prefetched line, the residual wait at time now. Counters and LRU are not
// touched.
func (c *Cache) probeWait(now Cycle, addr uint64) (wait Cycle, present bool) {
	_, i := c.findWay(addr)
	if i < 0 {
		return 0, false
	}
	if f := c.flags[i]; f&(linePrefetched|lineUsed) == linePrefetched {
		if r := c.ready[i]; r > now {
			wait = r - now
		}
	}
	return wait, true
}

// markDirty sets the dirty bit on addr's line if present (write-allocate
// fills).
func (c *Cache) markDirty(addr uint64) {
	if _, i := c.findWay(addr); i >= 0 {
		c.flags[i] |= lineDirty
	}
}

// Flush invalidates every line, modeling complete obliteration of the
// cache's contents by interleaved executions. Unused prefetched lines are
// counted as overpredicted. The flush is O(1): the epoch bump makes every
// set lazily reset on its next fill, and the overprediction charge comes
// from the running livePrefUnused counters.
func (c *Cache) Flush() {
	for k := range c.livePrefUnused {
		c.Stats.PrefetchEvictedUnused[k] += c.livePrefUnused[k]
		c.livePrefUnused[k] = 0
	}
	c.liveValid = 0
	c.epoch++
}

// EvictFraction invalidates approximately frac of the cache's valid lines,
// chosen by a deterministic PRNG stream, modeling partial thrashing by a
// bounded amount of interleaved foreign execution (Fig. 1's IAT sweep).
func (c *Cache) EvictFraction(frac float64, rng func() uint64) {
	if frac <= 0 {
		return
	}
	if frac >= 1 {
		c.Flush()
		return
	}
	threshold := uint64(frac * float64(1<<32))
	for i := range c.tags {
		if !c.valid(i) {
			continue
		}
		if rng()&0xFFFFFFFF < threshold {
			if f := c.flags[i]; f&(linePrefetched|lineUsed) == linePrefetched {
				fk := flagsKind(f)
				c.Stats.PrefetchEvictedUnused[fk]++
				c.livePrefUnused[fk]--
			}
			c.tags[i] = invalidTag
			c.liveValid--
		}
	}
}

// CountValid reports the number of valid lines (used by tests and the
// thrash model).
func (c *Cache) CountValid() int { return c.liveValid }

// DrainUnusedPrefetches counts still-resident never-used prefetched lines as
// overpredicted and marks them used so repeated calls are idempotent. Call at
// the end of a measurement window.
func (c *Cache) DrainUnusedPrefetches() {
	for i := range c.tags {
		if !c.valid(i) {
			continue
		}
		if f := c.flags[i]; f&(linePrefetched|lineUsed) == linePrefetched {
			fk := flagsKind(f)
			c.Stats.PrefetchEvictedUnused[fk]++
			c.livePrefUnused[fk]--
			c.flags[i] = f | lineUsed
		}
	}
}

// ResetStats zeroes the counters without touching cache contents, so warmup
// traffic can be excluded from measurement.
func (c *Cache) ResetStats() { c.Stats = CacheStats{} }

// ResidentBlocks appends the block addresses of all valid lines to dst and
// returns it, in set-major order. Context-restoration schemes (RECAP-style)
// use this to snapshot a cache's footprint at descheduling time.
func (c *Cache) ResidentBlocks(dst []uint64) []uint64 {
	for i := range c.tags {
		if c.valid(i) {
			dst = append(dst, c.tags[i]<<LineShift)
		}
	}
	return dst
}
