package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTailRule(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{99, 90, false},
		{100, 90, true},
		{20, 50, true},
		{19, 50, false},
		{999, 99, false},
		{1000, 99, true},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {90, 4.6}} {
		if got := percentile(vs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(p%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of no samples must be 0")
	}
}

// cannedTraces is `go tool pprof -traces` output: an inlined mem frame, a map
// lookup REAP caused, GC assist under an allocation in the runner, a GC
// worker with no repository frame, and a benchmark-harness frame.
const cannedTraces = `File: perfbench
Type: cpu
Duration: 2s, Total samples = 1s (50.00%)
-----------+-------------------------------------------------------
     400ms   lukewarm/internal/mem.(*Cache).findWay (inline)
             lukewarm/internal/mem.(*Cache).access
             lukewarm/internal/cpu.(*Core).exec
             main.(*invokeRound).run
             runtime.main
-----------+-------------------------------------------------------
     250ms   runtime.mapaccess2_fast64
             lukewarm/internal/reap.(*Reap).note
             lukewarm/internal/reap.(*Reap).OnDataAccess
             lukewarm/internal/cpu.(*Core).load
             lukewarm/internal/cluster.Run
-----------+-------------------------------------------------------
     200ms   runtime.gcAssistAlloc
             runtime.mallocgc
             runtime.growslice
             lukewarm/internal/runner.mapHit[go.shape.struct {}].func1
             runtime.goexit
-----------+-------------------------------------------------------
     100ms   runtime.gcBgMarkWorker
             runtime.goexit
-----------+-------------------------------------------------------
      50ms   hash/fnv.(*sum64a).Write
             fmt.Fprintf
             main.digestOf
             main.measure
-----------+-------------------------------------------------------
`

func TestFoldChargesRuntimeToCaller(t *testing.T) {
	shares, err := foldTraces(cannedTraces)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"mem": 40, "reap": 25, "runner": 20, "go": 10, "other": 5}
	sum := 0.0
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-9 {
			t.Errorf("%s share = %g%%, want %g%%", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g%%, want 100%%", sum)
	}
	if _, err := foldTraces("File: x\n"); err == nil {
		t.Error("a listing without samples must be an error")
	}
}

func TestModuleOf(t *testing.T) {
	cases := map[string]string{
		"lukewarm/internal/program.(*Invocation).NextBatch": "program",
		"lukewarm/internal/experiments.Fig1.func1":          "experiments",
		"lukewarm/internal/analysis/perf.Run":               "other",
		"lukewarm/internal/workload.ByName":                 "other",
		"lukewarm.Fig1":                                     "other",
		"main.main":                                         "other",
		"runtime.mallocgc":                                  "",
		"sort.Slice":                                        "",
	}
	for fn, want := range cases {
		got, ok := moduleOf(fn)
		if ok != (want != "") || got != want {
			t.Errorf("moduleOf(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
}

func TestSelfNsPerInstr(t *testing.T) {
	// 3 ms of Server.Invoke over 20000 instructions is 150 ns/instr; the
	// walker alone took 400 µs over 10000 instructions, 40 ns/instr.
	got := selfNsPerInstr(3*time.Millisecond, 20000, 400*time.Microsecond, 10000)
	if math.Abs(got-110) > 1e-9 {
		t.Errorf("self = %g ns/instr, want 110", got)
	}
}

func TestCellWall(t *testing.T) {
	cases := map[string]time.Duration{
		"[12/60] fig10 Pay-N/jukebox 1.834s":    1834 * time.Millisecond,
		"[3/18] fig11 Email-P/base 0s (cached)": 0,
		"[1/6] fig1 ProdL-G/fig1-iat=10 812ms":  812 * time.Millisecond,
		"[2/6] table3 Pay-N/broadwell 950µs":    950 * time.Microsecond,
	}
	for line, want := range cases {
		got, err := cellWall(line)
		if err != nil || got != want {
			t.Errorf("cellWall(%q) = %v, %v; want %v", line, got, err, want)
		}
	}
	if _, err := cellWall("garbage"); err == nil {
		t.Error("a line without a duration must be an error")
	}
}

// seedRound is a round whose only result is its seed, plus a drift that
// makes the rounds after the first few differ from the earlier rounds with
// the same seed.
type seedRound struct {
	seed  uint64
	drift *int
}

func (r *seedRound) setup() error          { return nil }
func (r *seedRound) run(tr *tracer, p int) {}
func (r *seedRound) result() roundResult {
	*r.drift++
	d := 0.0
	if *r.drift > 4 {
		d = 1
	}
	return roundResult{ops: 1, work: 1, counts: []count{{"seed", float64(r.seed)}, {"drift", d}}}
}

// TestSubSeedRotation checks that rounds rotate through sub-seeds, that each
// sub-seed prints its digest, and that a round is checked against the first
// round with its sub-seed.
func TestSubSeedRotation(t *testing.T) {
	if subSeed(9, 0) != 9 || subSeed(9, 1) == subSeed(9, 2) || subSeed(9, 1) == 9 {
		t.Fatalf("sub-seeds of 9: %d %d %d", subSeed(9, 0), subSeed(9, 1), subSeed(9, 2))
	}
	for _, c := range []struct {
		driftAfter int
		failed     int
	}{{1 << 30, 0}, {0, 2}} {
		drift := -c.driftAfter
		w := workloadDef{name: "w", seeded: true, subSeeds: 3, newRound: func(seed uint64, sz size) round {
			return &seedRound{seed: seed, drift: &drift}
		}}
		var log strings.Builder
		s, err := measure(w, 9, time.Nanosecond, false, tinySize, t.TempDir(), &log)
		if err != nil {
			t.Fatal(err)
		}
		// Six rounds: rounds 5 and 6 drift from rounds 2 and 3.
		if s.Attempted != 6 || s.Failed != c.failed {
			t.Errorf("drift after %d: %d of %d failed, want %d of 6", c.driftAfter, s.Failed, s.Attempted, c.failed)
		}
		var digest []string
		for _, l := range strings.Split(log.String(), "\n") {
			if strings.HasPrefix(l, "digest w ") {
				digest = strings.Fields(l)[2:]
			}
		}
		if len(digest) != 3 || digest[0] == digest[1] || digest[1] == digest[2] {
			t.Errorf("digest line %q, want three distinct digests", digest)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fleet-chaos", "--trace", "2"},
		{"--workload", "fleet-chaos", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errw strings.Builder
		if code := cli(args, &out, &errw); code != 2 || out.Len() != 0 {
			t.Errorf("cli(%q) = %d with output %q, want 2 and none", args, code, out.String())
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the program's metric and workload
// lists equal to the ones BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

var tinySize = size{
	invokeWarmup: 1, invokePerFn: 1,
	fleetInvocs: 1,
	sweepFuncs:  []string{"ProdL-G"}, sweepMeasure: 1,
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that every named metric prints with its unit and that the run is
// correct.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			var log strings.Builder
			s, err := measure(w, 7, time.Millisecond, traced, tinySize, t.TempDir(), &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed", w.name, traced, s.Correct, s.Failed, s.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(s.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(s.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := s.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, m, d.unit)
				}
				if !strings.Contains(log.String(), "metric "+d.name+" ") {
					t.Errorf("%s traced=%v: metric %s not printed", w.name, traced, d.name)
				}
			}
			if !strings.Contains(log.String(), "digest "+w.name+" ") {
				t.Errorf("%s: no digest line", w.name)
			}
			if traced {
				sum := 0.0
				for _, l := range layers {
					sum += s.Metrics[l+".cpu_share"].Value
				}
				if math.Abs(sum-100) > 1 {
					t.Errorf("%s: cpu shares sum to %g%%", w.name, sum)
				}
			}
		}
	}
}
