package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// testSpec declares two workloads, a lower-is-better and a
// higher-is-better metric, the way BENCHMARK.json does.
const testSpec = `{
  "workloads": [{"name": "invoke"}, {"name": "sweep"}],
  "end_to_end": [
    {"name": "ms_per_op", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
  ]
}`

// fake is one perfbench run: the fields of its summary line.
type fake struct {
	ms, ops float64 // ms_per_op and ops_per_s
	failed  int     // of 100 attempted operations
	wrong   bool    // reports correct:false
}

// steady is three runs of unchanged code.
func steady() []fake { return []fake{{ms: 10, ops: 100}, {ms: 11, ops: 95}, {ms: 9, ops: 105}} }

// both gives each workload steady runs on both sides; tests override one.
func both() (base, head map[string][]fake) {
	return map[string][]fake{"invoke": steady(), "sweep": steady()},
		map[string][]fake{"invoke": steady(), "sweep": steady()}
}

// layout writes the spec and each side's runs as <workload>-<n>.out, a log
// line then the summary line, and returns benchdiff's three arguments.
func layout(t *testing.T, base, head map[string][]fake) []string {
	t.Helper()
	dir := t.TempDir()
	args := []string{filepath.Join(dir, "BENCHMARK.json"), filepath.Join(dir, "base"), filepath.Join(dir, "head")}
	write := func(path, content string) {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(args[0], testSpec)
	for i, side := range []map[string][]fake{base, head} {
		if err := os.MkdirAll(args[i+1], 0o755); err != nil {
			t.Fatal(err)
		}
		for w, rs := range side {
			for n, r := range rs {
				write(filepath.Join(args[i+1], fmt.Sprintf("%s-%d.out", w, n+1)), fmt.Sprintf("metric wall_s 1 s\n"+
					`{"correct":%t,"attempted":100,"failed":%d,"metrics":{"ms_per_op":{"value":%g,"unit":"ms"},"ops_per_s":{"value":%g,"unit":"1/s"}}}`+"\n",
					!r.wrong, r.failed, r.ms, r.ops))
			}
		}
	}
	return args
}

// check runs benchdiff on args and wants exit code want with every
// fragment in its output, stdout then stderr, which it returns.
func check(t *testing.T, args []string, want int, fragments ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String() + stderr.String()
	if code != want {
		t.Fatalf("exit %d, want %d; output:\n%s", code, want, out)
	}
	for _, f := range fragments {
		if !strings.Contains(out, f) {
			t.Errorf("output lacks %q:\n%s", f, out)
		}
	}
	return out
}

// TestCompareImprovement: head within its bounds or better passes, and the
// table reports every workload and metric. A single slow head run does not
// move the median.
func TestCompareImprovement(t *testing.T) {
	base, head := both()
	head["invoke"] = []fake{{ms: 8, ops: 120}, {ms: 30, ops: 20}, {ms: 9, ops: 110}}
	head["sweep"] = []fake{{ms: 12, ops: 80}, {ms: 13, ops: 76}, {ms: 11, ops: 84}} // +20%, -20%
	check(t, layout(t, base, head), 0, "ok   invoke           ms_per_op", "ok   sweep            ops_per_s", "benchdiff: ok")
}

// TestCompareRegression: a lower-is-better metric rising past its bound, or
// a higher-is-better one falling past it, fails and names the workload and
// the metric; the other metric passes.
func TestCompareRegression(t *testing.T) {
	base, head := both()
	head["invoke"] = []fake{{ms: 13, ops: 100}, {ms: 14, ops: 95}, {ms: 13, ops: 105}}
	head["sweep"] = []fake{{ms: 10, ops: 70}, {ms: 11, ops: 66}, {ms: 9, ops: 74}}
	out := check(t, layout(t, base, head), 1,
		"FAIL invoke ms_per_op: head is 30.0% worse", "ok   invoke           ops_per_s",
		"FAIL sweep ops_per_s: head is 30.0% worse", "ok   sweep            ms_per_op")
	if n := strings.Count(out, "benchdiff: FAIL"); n != 2 {
		t.Errorf("%d failures, want 2:\n%s", n, out)
	}
}

// TestComparePairsCancelHostDrift: the host's speed shifting between runs
// moves both runs of a pair. These are invoke-lukewarm's ms_per_op from five
// pairs of unchanged code on a 2-vCPU host whose speed flipped between two
// states; the third pair straddled a flip. The medians differ by 29%, past
// the bound, while the median paired change is 3.6%.
func TestComparePairsCancelHostDrift(t *testing.T) {
	base, head := both()
	base["invoke"], head["invoke"] = nil, nil
	for _, ms := range [][2]float64{{77.3, 80.1}, {51.2, 51.0}, {56.9, 73.9}, {77.1, 73.3}, {48.1, 50.0}} {
		base["invoke"] = append(base["invoke"], fake{ms: ms[0], ops: 1000 / ms[0]})
		head["invoke"] = append(head["invoke"], fake{ms: ms[1], ops: 1000 / ms[1]})
	}
	check(t, layout(t, base, head), 0, "base       56.9  head       73.3  paired    +3.6%")
}

func TestCompareFailedShare(t *testing.T) {
	base, head := both()
	head["invoke"][1].failed = 1
	check(t, layout(t, base, head), 1, "invoke: head failed 0.003333 of operations, base 0")
}

// TestCompareIncorrectRun: a run reporting correct:false fails on either
// side.
func TestCompareIncorrectRun(t *testing.T) {
	for side := 0; side < 2; side++ {
		base, head := both()
		[]map[string][]fake{base, head}[side]["sweep"][2].wrong = true
		check(t, layout(t, base, head), 1, "sweep-3.out reported correct:false")
	}
}

// TestCompareMissingGatedBench: a declared workload with runs on one side
// only, or a run without its pair, fails; the comparison cannot be made.
func TestCompareMissingGatedBench(t *testing.T) {
	base, head := both()
	delete(head, "sweep")
	check(t, layout(t, base, head), 1, "sweep: 3 base and 0 head runs")

	base, head = both()
	args := layout(t, base, head)
	if err := os.Rename(filepath.Join(args[2], "invoke-3.out"), filepath.Join(args[2], "invoke-9.out")); err != nil {
		t.Fatal(err)
	}
	check(t, args, 1, "invoke: invoke-3.out has no head run to pair with")
}

// TestLoadMalformed: a run whose output has no summary, as after a failed
// build, fails the gate and names the file.
func TestLoadMalformed(t *testing.T) {
	for name, content := range map[string]string{
		"empty.out":     "",
		"log.out":       "perfbench: build failed\n",
		"nometrics.out": `{"correct":true,"attempted":1,"failed":0}`,
	} {
		p := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadSummary(p); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("%s: err = %v, want one naming the file", name, err)
		}
	}

	base, head := both()
	args := layout(t, base, head)
	if err := os.WriteFile(filepath.Join(args[2], "invoke-2.out"), []byte("perfbench: build failed\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	check(t, args, 1, "invoke-2.out: last line is not a summary")
}

// TestRunUsage: wrong arguments or an unreadable BENCHMARK.json exit 2.
func TestRunUsage(t *testing.T) {
	base, head := both()
	args := layout(t, base, head)
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(strings.Replace(testSpec, `"higher"`, `"up"`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	check(t, args[:2], 2, "usage: benchdiff")
	check(t, []string{args[0] + ".missing", args[1], args[2]}, 2, "no such file")
	check(t, []string{bad, args[1], args[2]}, 2, `better is "up"`)
}
