// Package runner is the experiment execution engine: it takes sets of
// independent simulation cells (workload × platform config × execution mode),
// fans them out across a bounded worker pool, and merges the results in
// deterministic submission order, so any experiment's rendered tables are
// byte-identical regardless of the worker count.
//
// On top of the pool the engine layers a content-addressed memoization cache
// (see job.go for the key definition and cache.go for the tiers) and run
// telemetry: per-cell wall time, cache hit/miss counters, and optional live
// progress lines. The experiment runners in internal/experiments submit all
// their measurements through one Engine, which the lukewarm CLI configures
// from its -jobs, -cache and -progress flags.
//
// Determinism contract: a cell's result depends only on the cell's content,
// never on scheduling. Every cell builds its own simulated server from its
// own configuration, and all randomness in the stack flows through seeded
// per-instance streams (package program), so concurrent execution cannot
// perturb results. The engine's tests prove this under -race and across
// worker counts.
package runner

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes an Engine. Every field value is meaningful — zero
// values select documented defaults — so there is nothing to reject.
//
//lukewarm:novalidate all field values are valid; zero values select defaults (Jobs -> GOMAXPROCS, CacheDir -> no disk tier, Now -> wall clock)
type Config struct {
	// Jobs is the maximum number of cells simulated concurrently. Zero or
	// negative selects GOMAXPROCS. A batch of n cells uses min(Jobs, n)
	// workers.
	Jobs int
	// CacheDir, when non-empty, adds an on-disk tier to the result cache:
	// cells memoized there are skipped across process runs. The directory is
	// created if missing.
	CacheDir string
	// Progress, when non-nil, receives one line per completed cell:
	//
	//	[12/60] fig10 Pay-N/jukebox 1.8s
	//
	// Writes are serialized; direct this at stderr so stdout tables stay
	// byte-identical.
	Progress io.Writer
	// Now is the engine's clock, read once per cell start and finish for
	// telemetry (progress lines, CellWall, -report wall times). Nil selects
	// the wall clock. Telemetry is the engine's only time source — results
	// never depend on it — and tests inject a fake here to make progress
	// and report timing deterministic.
	Now func() time.Time
}

// Engine executes cell batches. Create one with New and share it across an
// entire run so the cache and telemetry span experiments; the zero value is
// not usable.
type Engine struct {
	jobs     int
	cache    *cache
	progress io.Writer
	now      func() time.Time // telemetry clock seam; see Config.Now

	mu    sync.Mutex // guards progress writes and phase
	phase string

	cells    atomic.Uint64
	hits     atomic.Uint64
	cellWall atomic.Int64 // summed per-cell wall time, ns
}

// New builds an engine. An error is returned only when the on-disk cache
// directory cannot be created.
func New(cfg Config) (*Engine, error) {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	c, err := newCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	if cfg.Now == nil {
		//lukewarm:wallclock the engine's sole wall-clock seam; telemetry only, tests inject Config.Now
		cfg.Now = time.Now
	}
	return &Engine{jobs: cfg.Jobs, cache: c, progress: cfg.Progress, now: cfg.Now}, nil
}

// Default builds the engine experiments fall back on when the caller did not
// supply one: GOMAXPROCS workers, in-memory cache, no progress output.
func Default() *Engine {
	e, _ := New(Config{}) // no disk tier: New cannot fail
	return e
}

// Jobs reports the configured worker cap.
func (e *Engine) Jobs() int { return e.jobs }

// SetPhase labels subsequent progress lines (typically the experiment name).
func (e *Engine) SetPhase(name string) {
	e.mu.Lock()
	e.phase = name
	e.mu.Unlock()
}

// Stats is a snapshot of the engine's telemetry counters. Cells counts every
// unit executed (including cache hits); CellWall sums per-cell wall time
// across workers, so it exceeds elapsed time when cells run concurrently.
type Stats struct {
	Cells     uint64
	CacheHits uint64
	CellWall  time.Duration
}

// Stats returns the current counter snapshot. Take deltas of two snapshots
// for per-experiment accounting.
func (e *Engine) Stats() Stats {
	return Stats{
		Cells:     e.cells.Load(),
		CacheHits: e.hits.Load(),
		CellWall:  time.Duration(e.cellWall.Load()),
	}
}

// note records one finished cell and emits its progress line.
func (e *Engine) note(done, total int, label string, wall time.Duration, hit bool) {
	e.cells.Add(1)
	if hit {
		e.hits.Add(1)
	}
	e.cellWall.Add(int64(wall))
	if e.progress == nil {
		return
	}
	suffix := ""
	if hit {
		suffix = " (cached)"
	}
	e.mu.Lock()
	phase := e.phase
	if phase != "" {
		phase += " "
	}
	fmt.Fprintf(e.progress, "[%d/%d] %s%s %s%s\n",
		done, total, phase, label, wall.Round(time.Millisecond), suffix)
	e.mu.Unlock()
}

// MapOn runs fn(i) for every i in [0, n) on the engine's worker pool and
// returns the results in index order — the deterministic-merge primitive Run
// is built on. Use it directly for uncached experiment units (footprint
// walks, chaos cells, traffic runs over shared programs). label(i) names
// unit i in progress lines. All units run even if one fails; the returned
// error is the failing unit with the lowest index, so error reporting is as
// deterministic as the results.
//
// fn must not call MapOn, Run or Measure on the same engine: workers would
// deadlock waiting for themselves.
func MapOn[T any](e *Engine, n int, label func(int) string, fn func(int) (T, error)) ([]T, error) {
	return mapHit(e, n, label, func(i int) (T, bool, error) {
		v, err := fn(i)
		return v, false, err
	})
}

// mapHit is MapOn with a per-unit cache-hit flag for telemetry.
func mapHit[T any](e *Engine, n int, label func(int) string, fn func(int) (T, bool, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	results := make([]T, n)
	errs := make([]error, n)
	var done atomic.Int64

	run := func(i int) {
		start := e.now()
		var hit bool
		results[i], hit, errs[i] = fn(i)
		e.note(int(done.Add(1)), n, label(i), e.now().Sub(start), hit)
	}

	if workers := min(e.jobs, n); workers > 1 {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	} else {
		for i := 0; i < n; i++ {
			run(i)
		}
	}

	for _, err := range errs {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// Run executes jobs through the pool and the result cache, returning their
// results in job order. A batch is either one job type or, as []Job[T], a
// mix of types with one result type. Every job is keyed (see Key) before
// any runs, so a job without a canonical rendering fails the batch at
// submission; a job's Run is invoked only on cache misses.
func Run[T any, J Job[T]](e *Engine, jobs []J) ([]T, error) {
	keys := make([]uint64, len(jobs))
	for i, j := range jobs {
		k, err := Key(j)
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return mapHit(e, len(jobs), func(i int) string { return jobs[i].Label() },
		func(i int) (T, bool, error) {
			if v, ok := cacheGet[T](e.cache, keys[i]); ok {
				return v, true, nil
			}
			v, err := jobs[i].Run()
			if err == nil {
				cachePut(e.cache, keys[i], v)
			}
			return v, false, err
		})
}

// Measure runs a batch of standard cells (see Run).
func (e *Engine) Measure(cells []Cell) ([]Measurement, error) { return Run(e, cells) }
