package runner

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// cache is the two-tier content-addressed result store. The in-memory tier
// is always on and holds any result type: within one process, any two
// experiments that submit the same job share one run. The on-disk tier (one
// gob file of the job's concrete result type per key) is optional and makes
// repeated runs of the same figure start warm across processes.
//
// There is no explicit invalidation: keys embed SchemaVersion, the job type
// and its whole content (see Key), so entries written under a different
// schema or configuration are simply never looked up again. A key fixes
// its job type and so its result type. Undecodable disk entries — a torn
// write, a foreign file — are treated as misses and removed.
type cache struct {
	mu  sync.Mutex
	mem map[uint64]any
	dir string // empty: memory tier only
}

// newCache builds a cache; dir == "" selects the memory tier only. The
// directory is created if missing.
func newCache(dir string) (*cache, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: cache dir: %w", err)
		}
	}
	return &cache{mem: map[uint64]any{}, dir: dir}, nil
}

// path is the disk location of key's entry.
func (c *cache) path(key uint64) string {
	return filepath.Join(c.dir, fmt.Sprintf("%016x.gob", key))
}

// cacheGet looks key up in both tiers, promoting disk hits into memory.
func cacheGet[T any](c *cache, key uint64) (T, bool) {
	c.mu.Lock()
	v, ok := c.mem[key]
	c.mu.Unlock()
	if ok {
		t, ok := v.(T)
		return t, ok
	}
	var t T
	if c.dir == "" {
		return t, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		return t, false
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&t); err != nil {
		os.Remove(c.path(key)) // corrupt entry: drop it and re-run
		var zero T
		return zero, false
	}
	c.mu.Lock()
	c.mem[key] = t
	c.mu.Unlock()
	return t, true
}

// cachePut stores v under key in memory and, when configured, on disk. Disk
// writes go through a temp file and rename, so a crash can leave at worst a
// stray .tmp, never a torn entry; write failures silently degrade to
// memory-only caching (the result itself is already safe in the memory
// tier).
func cachePut[T any](c *cache, key uint64, v T) {
	c.mu.Lock()
	c.mem[key] = v
	c.mu.Unlock()
	if c.dir == "" {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return
	}
	_, werr := tmp.Write(buf.Bytes())
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
	}
}

// Len reports the number of in-memory entries (for tests and telemetry).
func (c *cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.mem)
}
