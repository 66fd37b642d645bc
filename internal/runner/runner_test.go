package runner

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"lukewarm/internal/cluster"
	"lukewarm/internal/core"
	"lukewarm/internal/cpu"
	"lukewarm/internal/faults"
	"lukewarm/internal/reap"
	"lukewarm/internal/serverless"
	"lukewarm/internal/workload"
)

// testEngine builds an engine with the given worker count and no disk tier.
func testEngine(t *testing.T, jobs int) *Engine {
	t.Helper()
	e, err := New(Config{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// quickCells builds a small standard-cell batch spanning configurations.
func quickCells() []Cell {
	jb := core.DefaultConfig()
	var cells []Cell
	for _, w := range []string{"Auth-G", "Email-P"} {
		for _, c := range []Cell{
			{Workload: w, CPU: cpu.SkylakeConfig(), Mode: Lukewarm},
			{Workload: w, CPU: cpu.SkylakeConfig(), Jukebox: &jb, Mode: Lukewarm},
			{Workload: w, CPU: cpu.SkylakeConfig(), Mode: Reference},
		} {
			c.Warmup, c.Measure = 1, 1
			cells = append(cells, c)
		}
	}
	return cells
}

func TestMapOnOrderAndConcurrency(t *testing.T) {
	for _, jobs := range []int{1, 3, 8, 100} {
		e := testEngine(t, jobs)
		got, err := MapOn(e, 20, func(i int) string { return fmt.Sprint(i) },
			func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapOnLowestIndexError(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		e := testEngine(t, jobs)
		var ran atomic.Int64
		_, err := MapOn(e, 10, func(i int) string { return "u" },
			func(i int) (int, error) {
				ran.Add(1)
				if i == 7 || i == 3 {
					return 0, fmt.Errorf("unit %d failed", i)
				}
				return i, nil
			})
		if err == nil || !strings.Contains(err.Error(), "unit 3") {
			t.Errorf("jobs=%d: err = %v, want lowest-index unit 3", jobs, err)
		}
		if ran.Load() != 10 {
			t.Errorf("jobs=%d: ran %d units, want all 10 despite failures", jobs, ran.Load())
		}
	}
}

func TestMapOnEmpty(t *testing.T) {
	e := testEngine(t, 4)
	got, err := MapOn(e, 0, nil, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Errorf("MapOn(0) = %v, %v", got, err)
	}
}

// mustKey is Key for jobs that must have a canonical rendering.
func mustKey(t *testing.T, job any) uint64 {
	t.Helper()
	k, err := Key(job)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestCellKey(t *testing.T) {
	base := Cell{Workload: "Auth-G", CPU: cpu.SkylakeConfig(), Mode: Lukewarm, Warmup: 1, Measure: 2}
	if mustKey(t, base) != mustKey(t, base) {
		t.Error("key not deterministic")
	}
	jb := core.DefaultConfig()
	jb2 := core.DefaultConfig()
	withJB := base
	withJB.Jukebox = &jb
	sameJB := base
	sameJB.Jukebox = &jb2
	if mustKey(t, withJB) != mustKey(t, sameJB) {
		t.Error("equal Jukebox configs behind distinct pointers must share a key")
	}
	mutants := []func(*Cell){
		func(c *Cell) { c.Workload = "Email-P" },
		func(c *Cell) { c.CPU = cpu.BroadwellConfig() },
		func(c *Cell) { c.Perfect = true },
		func(c *Cell) { c.Mode = Reference },
		func(c *Cell) { c.Warmup = 9 },
		func(c *Cell) { c.Measure = 9 },
		func(c *Cell) { c.Audit = true },
		func(c *Cell) { c.CPU.Hier.L2.SizeBytes *= 2 },
		func(c *Cell) { jb := core.DefaultConfig(); c.Jukebox = &jb },
		func(c *Cell) { jb := core.DefaultConfig(); jb.MetadataBytes *= 2; c.Jukebox = &jb },
		func(c *Cell) { rc := reap.DefaultConfig(); c.Reap = &rc },
	}
	seen := map[uint64]int{mustKey(t, base): -1}
	for i, mutate := range mutants {
		c := base
		mutate(&c)
		k := mustKey(t, c)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutant %d collides with %d", i, prev)
		}
		seen[k] = i
	}
	// The type name is part of the key: a job type wrapping a cell never
	// shares an address with the cell itself.
	if mustKey(t, base) == mustKey(t, wrapped{base}) {
		t.Error("a wrapper job type shares its cell's key")
	}
}

// wrapped is a custom job type with the same content as a Cell.
type wrapped struct{ Cell }

// countedRuns counts counted.Run executions.
var countedRuns atomic.Int64

// counted is a custom job that squares N.
type counted struct {
	Name string
	N    int
}

func (j counted) Label() string { return j.Name }

func (j counted) Run() (int, error) {
	countedRuns.Add(1)
	return j.N * j.N, nil
}

// unkeyable holds a func, which has no canonical rendering.
type unkeyable struct{ F func() }

func (unkeyable) Label() string     { return "unkeyable" }
func (unkeyable) Run() (int, error) { return 0, nil }

func TestRunRejectsUnkeyableJobs(t *testing.T) {
	e := testEngine(t, 2)
	countedRuns.Store(0)
	jobs := []Job[int]{counted{Name: "ok", N: 1}, unkeyable{F: func() {}}}
	if _, err := Run(e, jobs); err == nil || !strings.Contains(err.Error(), "canonical") {
		t.Fatalf("Run accepted a job holding a func: err = %v", err)
	}
	if n := countedRuns.Load(); n != 0 || e.Stats().Cells != 0 {
		t.Errorf("a rejected batch ran %d jobs (stats %+v), want none", n, e.Stats())
	}
	// A nil func renders canonically.
	if _, err := Key(unkeyable{}); err != nil {
		t.Errorf("Key(nil func field) = %v, want accepted", err)
	}
	if _, err := Key(struct{ M map[string]int }{M: map[string]int{"a": 1}}); err == nil {
		t.Error("Key accepted a non-nil map")
	}
}

func TestMeasureDeterministicAcrossJobs(t *testing.T) {
	cells := quickCells()
	ref, err := testEngine(t, 1).Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		got, err := testEngine(t, jobs).Measure(cells)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("jobs=%d: measurements differ from jobs=1", jobs)
		}
	}
}

func TestMeasureMemoizes(t *testing.T) {
	e := testEngine(t, 4)
	cells := quickCells()
	first, err := e.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Cells != uint64(len(cells)) || st.CacheHits != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	again, err := e.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached results differ from executed results")
	}
	st = e.Stats()
	if st.CacheHits != uint64(len(cells)) {
		t.Errorf("warm stats = %+v, want %d hits", st, len(cells))
	}
}

func TestRunCustomJobs(t *testing.T) {
	e := testEngine(t, 4)
	countedRuns.Store(0)
	jobs := []Job[int]{
		counted{Name: "a", N: 2},
		counted{Name: "b", N: 3},
		counted{Name: "a", N: 2}, // same content as jobs[0]
	}
	got, err := Run(e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{4, 9, 4}) {
		t.Errorf("results = %v, want [4 9 4]", got)
	}
	// A second submission is served from the cache; a content change runs.
	again, err := Run(e, append(jobs, counted{Name: "a", N: 5}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, []int{4, 9, 4, 25}) {
		t.Errorf("results = %v, want [4 9 4 25]", again)
	}
	// jobs[0] and jobs[2] may both miss in the first batch (they run
	// concurrently); everything in the second batch but the new job hits.
	if n := countedRuns.Load(); n < 3 || n > 4 {
		t.Errorf("jobs ran %d times, want 3 or 4", n)
	}
	if st := e.Stats(); st.CacheHits < 3 {
		t.Errorf("stats = %+v, want the resubmitted jobs to hit", st)
	}
}

// TestSharedProgramConcurrentWalks pins the library-wide determinism audit:
// programs are immutable after construction, so concurrent cells may walk
// one shared *Program (as the Scaling and ServerSim experiments do when they
// deploy the same suite into parallel traffic simulations). Run under -race,
// this fails loudly if anyone adds mutable walk state to Program.
func TestSharedProgramConcurrentWalks(t *testing.T) {
	w, err := workload.ByName("Auth-G")
	if err != nil {
		t.Fatal(err)
	}
	e := testEngine(t, 8)
	cpis, err := MapOn(e, 8, func(i int) string { return fmt.Sprintf("walk%d", i) },
		func(i int) (float64, error) {
			srv := serverless.New(serverless.Config{CPU: cpu.SkylakeConfig()})
			inst := srv.Deploy(w) // every unit shares w.Program
			return srv.RunLukewarm(inst, 2).CPI(), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cpis {
		if c != cpis[0] {
			t.Fatalf("walk %d CPI %v != walk 0 CPI %v: shared program walks are not deterministic", i, c, cpis[0])
		}
	}
}

func TestCacheDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := Measurement{Instrs: 123, Cycles: 456, MetaBytes: 7}
	cachePut(c1, 42, m)

	// A fresh cache over the same directory must hit from disk.
	c2, err := newCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := cacheGet[Measurement](c2, 42)
	if !ok || !reflect.DeepEqual(got, m) {
		t.Fatalf("disk get = %+v, %v", got, ok)
	}
	if c2.Len() != 1 {
		t.Errorf("disk hit not promoted to memory: len = %d", c2.Len())
	}

	// Corrupt entries are misses and get removed.
	path := filepath.Join(dir, fmt.Sprintf("%016x.gob", uint64(99)))
	if err := os.WriteFile(path, []byte("not a gob stream"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := cacheGet[Measurement](c2, 99); ok {
		t.Error("corrupt entry reported as hit")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Error("corrupt entry not removed")
	}

	// Memory-only cache misses cleanly.
	c3, _ := newCache("")
	if _, ok := cacheGet[Measurement](c3, 42); ok {
		t.Error("memory-only cache hit a disk entry")
	}
}

func TestEngineDiskCacheAcrossProcessesSimulated(t *testing.T) {
	dir := t.TempDir()
	cells := quickCells()
	e1, err := New(Config{Jobs: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	first, err := e1.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	// A second engine over the same directory stands in for a new process.
	e2, err := New(Config{Jobs: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e2.Measure(cells)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("disk-cached results differ")
	}
	if st := e2.Stats(); st.CacheHits != uint64(len(cells)) {
		t.Errorf("second engine stats = %+v, want all hits", st)
	}

	// The disk tier stores each job's concrete result type: traffic and
	// fleet summaries round-trip through a new engine unchanged.
	tc := serverless.DefaultTrafficConfig()
	tc.InvocationsPerInstance, tc.MeanIATms = 3, 50
	funcs := []string{"Auth-G", "Email-P"}
	traffic := []Job[serverless.TrafficSummary]{trafficJob{Funcs: funcs, Traffic: tc}}
	fleet := []Job[cluster.Summary]{fleetJob{Funcs: funcs, Nodes: 2, Traffic: tc, FlakeProb: 0.3, Seed: 7}}
	t1, err := Run(e1, traffic)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := Run(e1, fleet)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := New(Config{Jobs: 4, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Run(e3, traffic)
	if err != nil {
		t.Fatal(err)
	}
	f3, err := Run(e3, fleet)
	if err != nil {
		t.Fatal(err)
	}
	if st := e3.Stats(); st.CacheHits != 2 {
		t.Errorf("third engine stats = %+v, want both summaries from disk", st)
	}
	if !reflect.DeepEqual(t1, t3) {
		t.Errorf("disk-cached traffic summary differs:\n%+v\n%+v", t1, t3)
	}
	if !reflect.DeepEqual(f1, f3) {
		t.Errorf("disk-cached fleet summary differs:\n%+v\n%+v", f1, f3)
	}
	if f1[0].DispatchFlakes == 0 || t1[0].Served == 0 {
		t.Errorf("summaries too trivial to test the round trip: %+v %+v", t1[0], f1[0])
	}
}

// trafficJob serves a short traffic run on one server.
type trafficJob struct {
	Funcs   []string
	Traffic serverless.TrafficConfig
}

func (j trafficJob) Label() string { return "traffic" }

func (j trafficJob) Run() (serverless.TrafficSummary, error) {
	srv := serverless.New(serverless.Config{})
	for _, n := range j.Funcs {
		w, err := workload.ByName(n)
		if err != nil {
			return serverless.TrafficSummary{}, err
		}
		srv.Deploy(w)
	}
	res, err := srv.ServeTraffic(j.Traffic)
	return res.Summary(), err
}

// fleetJob runs a small fleet with flaky dispatch and one retry.
type fleetJob struct {
	Funcs     []string
	Nodes     int
	Traffic   serverless.TrafficConfig
	FlakeProb float64
	Seed      uint64
}

func (j fleetJob) Label() string { return "fleet" }

func (j fleetJob) Run() (cluster.Summary, error) {
	cfg := cluster.Config{
		Nodes: j.Nodes, Traffic: j.Traffic, RetryMax: 1, RetryBackoffMs: 2,
		Faults: faults.NewPlan(j.Seed, faults.DispatchFlake), DispatchFlakeProb: j.FlakeProb,
	}
	for _, n := range j.Funcs {
		w, err := workload.ByName(n)
		if err != nil {
			return cluster.Summary{}, err
		}
		cfg.Workloads = append(cfg.Workloads, w)
	}
	res, err := cluster.Run(cfg)
	return res.Summary(), err
}

func TestProgressLines(t *testing.T) {
	var buf bytes.Buffer
	e, err := New(Config{Jobs: 1, Progress: &buf})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPhase("figX")
	if _, err := MapOn(e, 2, func(i int) string { return fmt.Sprintf("unit%d", i) },
		func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"[1/2] figX unit0", "[2/2] figX unit1"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output %q missing %q", out, want)
		}
	}
}

func TestDefaultEngine(t *testing.T) {
	e := Default()
	if e.Jobs() < 1 {
		t.Errorf("Jobs = %d", e.Jobs())
	}
}

func TestModeString(t *testing.T) {
	if Reference.String() != "ref" || Lukewarm.String() != "lukewarm" {
		t.Error("mode strings changed; cache schema may need a bump")
	}
}

func TestCellLabel(t *testing.T) {
	jb := core.DefaultConfig()
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Cell{Workload: "W", Mode: Lukewarm}, "W/lukewarm"},
		{Cell{Workload: "W", Mode: Reference}, "W/ref"},
		{Cell{Workload: "W", Jukebox: &jb}, "W/jukebox"},
		{Cell{Workload: "W", Perfect: true}, "W/perfect"},
	} {
		if got := tc.cell.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}
