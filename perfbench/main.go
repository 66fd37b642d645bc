// Command perfbench is the repository's benchmark. It times the simulator on
// the host (how long the simulator takes, never simulated time) over three
// workloads, checks every result for correctness, and prints one JSON
// summary line last:
//
//	perfbench --workload invoke-lukewarm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the summary carries the end-to-end metrics; with --trace 1
// a separate traced run records spans and a CPU profile and reports the
// per-layer metrics. See README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lukewarm/internal/program"
	"lukewarm/internal/workload"
)

// round is one repetition of a workload: set-up, the timed part, then the
// correctness checks and exact simulated counts, outside the timed part.
// Every round of a run sees the same inputs, so every round must report the
// same counts.
type round interface {
	setup() error
	run(tr *tracer, parent int)
	result() roundResult
}

// count is one exact simulated quantity.
type count struct {
	name  string
	value float64
}

// roundResult is what one round reports.
type roundResult struct {
	ops, failed int     // benchmark operations attempted and failed
	counts      []count // exact simulated counts, per-layer metric names
	tables      string  // rendered results, folded into the digest
	instrs      uint64  // simulated instructions in the timed part, where exposed
	requests    int     // resolved fleet requests
	work        int     // operations ms_per_op divides the timed part by
	samples     []float64
	cellWall    time.Duration // summed runner cell wall time
	jobs        int
}

// size scales the workloads; tests use a tiny one.
type size struct {
	invokeWarmup, invokePerFn int
	fleetInvocs               int
	sweepFuncs                []string
	sweepMeasure              int
	// tails makes a run continue until its percentiles have minTail
	// samples beyond them.
	tails bool
}

var fullSize = size{
	invokeWarmup: 2, invokePerFn: 20,
	fleetInvocs: 4,
	sweepFuncs:  workload.Representatives(), sweepMeasure: 2,
	tails: true,
}

// workloadDef names a workload and builds its rounds.
type workloadDef struct {
	name     string
	seeded   bool
	newRound func(seed uint64, sz size) round
	// tail is the percentile the untraced run's per-operation samples
	// must support, and cellTail the one the traced run's runner cells
	// must (0: none).
	tail, cellTail float64
	// subSeeds is how many seeds, derived from the run's seed, an
	// untraced run's rounds rotate through (0 and 1: every round uses the
	// run's seed). Rotating averages out how much one seed's inputs cost,
	// so ms_per_op tracks the program rather than the seed. Traced runs
	// use the run's seed only.
	subSeeds int
}

var workloads = []workloadDef{
	{name: "invoke-lukewarm", seeded: true, newRound: newInvokeRound, tail: 90},
	{name: "fleet-chaos", seeded: true, newRound: newFleetRound, subSeeds: 3},
	{name: "figure-sweep", newRound: newSweepRound, cellTail: 90},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: invoke-lukewarm, fleet-chaos or figure-sweep")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "how long to measure")
	trace := fs.Int("trace", 0, "1 records spans and a CPU profile and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workloadDef
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>\n")
		return 2
	}
	s, err := measure(*w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, fullSize, traceDir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !s.Correct {
		return 1
	}
	return 0
}

// traceDir holds a traced run's spans and CPU profiles, under the build
// directory run.sh uses.
const traceDir = ".bench_build/perfbench-out"

// minSetups is the fewest set-up samples setup_s is the median of. A run
// that has them keeps sampling set-ups for setupSampling more, up to
// maxSetups in all, so that a set-up of a few milliseconds has a median over
// enough samples to stand out of the host's noise.
const (
	minSetups     = 5
	maxSetups     = 100
	setupSampling = 500 * time.Millisecond
)

// runData accumulates a run's rounds.
type runData struct {
	first    roundResult
	digests  []uint64 // one per sub-seed
	ops      int
	failed   int
	setups   []float64 // untraced set-up seconds
	walls    []float64 // untraced timed-part seconds
	msPerOp  []float64 // untraced rounds' host ms per operation
	samples  []float64 // untraced per-operation samples
	instrs   uint64
	requests int
	cellWall time.Duration
	jobs     int
	runtime  runtimeDelta // Go runtime work over the untraced timed parts

	tr         *tracer
	profiles   []string
	tracedWall []float64
	last       round
}

// measure runs rounds of w until at least d has passed (and the workload's
// tail percentile is supported), and summarizes them. A traced run's first
// round is untraced, for the tracing overhead and the Go runtime figures.
func measure(w workloadDef, seed uint64, d time.Duration, traced bool, sz size, outDir string, log io.Writer) (summary, error) {
	var rd runData
	tag := fmt.Sprint(seed)
	if !w.seeded {
		tag = "none"
	}
	if traced {
		rd.tr = newTracer()
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return summary{}, err
		}
	}
	subs := 1
	if !traced && w.subSeeds > 1 {
		subs = w.subSeeds
	}
	start := time.Now()
	for i := 0; i == 0 || !rd.enough(w, sz, traced, subs, time.Since(start) >= d); i++ {
		var prof string
		if traced && i > 0 {
			prof = filepath.Join(outDir, fmt.Sprintf("%s-%s-round%d.pprof", w.name, tag, i))
		}
		if err := rd.round(w.newRound(subSeed(seed, i%subs), sz), i, subs, prof); err != nil {
			return summary{}, err
		}
	}
	for t := time.Now(); !traced && (len(rd.setups) < minSetups ||
		len(rd.setups) < maxSetups && time.Since(t) < setupSampling); {
		// Collect the last sample's set-up first, as a round does, so
		// sampling moves neither the next sample nor the peak resident set.
		runtime.GC()
		t0 := time.Now()
		if err := w.newRound(seed, sz).setup(); err != nil {
			return summary{}, fmt.Errorf("set-up: %w", err)
		}
		rd.setups = append(rd.setups, time.Since(t0).Seconds())
	}

	switch {
	case !w.seeded:
		fmt.Fprintf(log, "workload %s seedless (its experiments fix their own seeds) rounds %d\n", w.name, len(rd.walls)+len(rd.tracedWall))
	case subs > 1:
		fmt.Fprintf(log, "workload %s seed %s rounds %d rotating through %d sub-seeds\n", w.name, tag, len(rd.walls), subs)
	default:
		fmt.Fprintf(log, "workload %s seed %s rounds %d\n", w.name, tag, len(rd.walls)+len(rd.tracedWall))
	}
	fmt.Fprintf(log, "digest %s", w.name)
	for _, h := range rd.digests {
		fmt.Fprintf(log, " %016x", h)
	}
	fmt.Fprintln(log)
	for _, c := range rd.first.counts {
		fmt.Fprintf(log, "count %s %s\n", c.name, strconv.FormatFloat(c.value, 'f', -1, 64))
	}
	var defs []metricDef
	var m map[string]float64
	if traced {
		var err error
		if m, err = rd.perLayer(outDir, fmt.Sprintf("%s-%s", w.name, tag), log); err != nil {
			return summary{}, err
		}
		defs = perLayer
	} else {
		m = rd.endToEnd(w, log)
		defs = endToEnd
	}
	s := summary{Correct: rd.failed == 0, Attempted: rd.ops, Failed: rd.failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		v := m[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		s.Metrics[def.name] = metric{v, def.unit}
		fmt.Fprintf(log, "metric %s %.6g %s\n", def.name, v, def.unit)
	}
	return s, nil
}

// enough reports whether the run may stop after the rounds so far, once
// timeUp says the measuring time has passed. subs is how many sub-seeds the
// rounds rotate through.
func (rd *runData) enough(w workloadDef, sz size, traced bool, subs int, timeUp bool) bool {
	if !timeUp {
		return false
	}
	if !traced {
		// Two rounds of every sub-seed at least, so every run checks that
		// identical inputs give identical simulated results.
		return len(rd.walls) >= 2*subs && (!sz.tails || w.tail == 0 || tailSupported(len(rd.samples), w.tail))
	}
	// At least one traced round, and enough runner cells for their tail.
	cells := len(rd.tr.durations("runner.cell"))
	return len(rd.tracedWall) > 0 && (!sz.tails || w.cellTail == 0 || tailSupported(cells, w.cellTail))
}

// round runs round i: set-up, the timed part (traced and profiled to prof
// when prof is set), and the checks. Its results must equal those of the
// first round with the same sub-seed.
func (rd *runData) round(r round, i, subs int, prof string) error {
	// Start every round from a collected heap, so one round's garbage
	// neither slows the next nor moves the peak resident set.
	runtime.GC()
	t0 := time.Now()
	if err := r.setup(); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	setup := time.Since(t0)
	var tr *tracer // nil in untraced rounds
	var f *os.File
	root := -1
	var rt0 runtimeSample
	if prof != "" {
		var err error
		if f, err = os.Create(prof); err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		rd.profiles = append(rd.profiles, prof)
		tr = rd.tr
		root = tr.begin("round", -1, int64(i))
	} else {
		rt0 = readRuntime()
	}
	t1 := time.Now()
	r.run(tr, root)
	wall := time.Since(t1)
	if prof != "" {
		tr.end(root)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return err
		}
	} else {
		rd.runtime = rd.runtime.plus(readRuntime().since(rt0))
	}
	res := r.result()
	if i == 0 {
		rd.first = res
	}
	if h := digestOf(res); i < subs {
		rd.digests = append(rd.digests, h)
	} else if h != rd.digests[i%subs] {
		// Same inputs, different simulated results: every operation of the
		// round is wrong.
		res.failed = res.ops
	}
	rd.ops += res.ops
	rd.failed += res.failed
	rd.last = r
	if prof != "" {
		rd.tracedWall = append(rd.tracedWall, wall.Seconds())
		return nil
	}
	rd.setups = append(rd.setups, setup.Seconds())
	rd.walls = append(rd.walls, wall.Seconds())
	rd.msPerOp = append(rd.msPerOp, ratio(wall.Seconds()*1e3, float64(res.work)))
	rd.samples = append(rd.samples, res.samples...)
	rd.instrs += res.instrs
	rd.requests += res.requests
	rd.cellWall += res.cellWall
	rd.jobs = res.jobs
	rd.runtime.ops += res.ops
	return nil
}

// endToEnd computes the untraced run's metrics and prints the figures that
// only some workloads have; those stay out of the summary, whose metric set
// is the same for every workload.
func (rd *runData) endToEnd(w workloadDef, log io.Writer) map[string]float64 {
	total := 0.0
	for _, v := range rd.walls {
		total += v
	}
	fmt.Fprintf(log, "metric wall_s %.6g s (median of %d rounds)\n", median(rd.walls), len(rd.walls))
	fmt.Fprintf(log, "round_walls_s %v\n", rd.walls)
	fmt.Fprintf(log, "metric failed_frac %.6g ratio\n", ratio(float64(rd.failed), float64(rd.ops)))
	switch w.name {
	case "invoke-lukewarm":
		fmt.Fprintf(log, "metric sim_minstr_per_s %.6g Minstr/s\n", float64(rd.instrs)/1e6/total)
		fmt.Fprintf(log, "metric invoke_ns_per_instr_p50 %.6g ns (n=%d)\n", percentile(rd.samples, 50), len(rd.samples))
		fmt.Fprintf(log, "metric invoke_ns_per_instr_p90 %.6g ns (n=%d)\n", percentile(rd.samples, 90), len(rd.samples))
	case "fleet-chaos":
		fmt.Fprintf(log, "metric requests_per_s %.6g 1/s\n", float64(rd.requests)/total)
	}
	return map[string]float64{
		"setup_s":     median(rd.setups),
		"ms_per_op":   median(rd.msPerOp),
		"peak_rss_mb": peakRSSMB(),
	}
}

// perLayer computes the traced run's metrics, folds the CPU profiles and
// writes the spans.
func (rd *runData) perLayer(outDir, name string, log io.Writer) (map[string]float64, error) {
	tr := rd.tr
	m := map[string]float64{}
	for _, c := range rd.first.counts {
		m[c.name] = c.value
	}
	total := 0.0
	for _, v := range rd.walls {
		total += v
	}
	m["runner.worker_util"] = ratio(rd.cellWall.Seconds(), total*float64(rd.jobs))
	m["go.gc_cpu_frac"] = ratio(rd.runtime.gcCPU, rd.runtime.busyCPU)
	m["go.alloc_bytes_per_op"] = ratio(rd.runtime.allocBytes, float64(rd.runtime.ops))
	m["trace.overhead_frac"] = median(rd.tracedWall)/median(rd.walls) - 1
	if ir, ok := rd.last.(*invokeRound); ok {
		root := tr.begin("walk-pass", -1, 0)
		n, walk := ir.walk(tr, root)
		tr.end(root)
		var inv time.Duration
		for _, v := range tr.durations("serverless.Invoke") {
			inv += v
		}
		m["program.walk_ns_per_instr"] = ratio(float64(walk), float64(n))
		m["cpu.self_ns_per_instr"] = selfNsPerInstr(inv, rd.first.instrs*uint64(len(rd.tracedWall)), walk, n)
		m["serverless.flush_us"] = median(inUnits(tr.durations("serverless.FlushMicroarch"), time.Microsecond))
	}
	cells := inUnits(tr.durations("runner.cell"), time.Millisecond)
	m["runner.cell_ms_p50"] = percentile(cells, 50)
	m["runner.cell_ms_p90"] = percentile(cells, 90)
	m["runner.cell_samples"] = float64(len(cells))
	shares, err := foldProfiles(rd.profiles)
	if err != nil {
		return nil, err
	}
	for l, v := range shares {
		m[l+".cpu_share"] = v
	}
	path := filepath.Join(outDir, name+".spans.jsonl")
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "spans %d written to %s; CPU profiles %s\n", len(tr.spans), path, strings.Join(rd.profiles, " "))
	return m, nil
}

// subSeed is the seed of a run's j-th sub-seed; the first is the run's own.
func subSeed(seed uint64, j int) uint64 {
	if j == 0 {
		return seed
	}
	return program.Mix(seed, uint64(j))
}

// digestOf hashes a round's exact simulated counts and rendered results.
func digestOf(r roundResult) uint64 {
	h := fnv.New64a()
	for _, c := range r.counts {
		fmt.Fprintf(h, "%s=%v\n", c.name, c.value)
	}
	io.WriteString(h, r.tables)
	return h.Sum64()
}

// inUnits converts durations to float counts of unit.
func inUnits(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	return out
}

// peakRSSMB is the process's maximum resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeSample is a reading of the Go runtime's CPU and allocation
// counters.
type runtimeSample struct{ gc, total, idle, alloc float64 }

var runtimeMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSample{gc: v(0), total: v(1), idle: v(2), alloc: v(3)}
}

// runtimeDelta is the runtime's work over one untraced timed part.
type runtimeDelta struct {
	gcCPU, busyCPU, allocBytes float64
	ops                        int
}

func (b runtimeSample) since(a runtimeSample) runtimeDelta {
	return runtimeDelta{
		gcCPU:      b.gc - a.gc,
		busyCPU:    (b.total - b.idle) - (a.total - a.idle),
		allocBytes: b.alloc - a.alloc,
	}
}

func (a runtimeDelta) plus(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		gcCPU:      a.gcCPU + b.gcCPU,
		busyCPU:    a.busyCPU + b.busyCPU,
		allocBytes: a.allocBytes + b.allocBytes,
		ops:        a.ops + b.ops,
	}
}
