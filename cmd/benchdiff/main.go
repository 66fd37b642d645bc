// Command benchdiff is the repository's perf gate. It compares runs of the
// repo benchmark (perfbench, declared in BENCHMARK.json) made on one host on
// a base and a head tree, and fails when head is worse.
//
// Usage:
//
//	benchdiff BENCHMARK.json BASE_DIR HEAD_DIR
//
// Each directory holds one file per run, named <workload>-<n>.out: the run's
// standard output, whose last line is perfbench's JSON summary. `make bench`
// writes them. For every workload BENCHMARK.json declares, benchdiff fails
// (exit 1) when
//
//   - a run on either side has no summary or reports correct:false;
//   - a run has no pair on the other side;
//   - head fails a larger share of operations than base;
//   - for an end-to-end metric, head is worse than base by more than the
//     metric's bound, in the metric's direction. The change compared is the
//     median, over the pairs of runs made with one seed, of head's value
//     divided by base's.
//
// It exits 0 when every check passes and 2 on a usage error or an unreadable
// BENCHMARK.json.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []endToEnd `json:"end_to_end"`
}

// endToEnd is one gated metric: a relative bound in its better direction.
type endToEnd struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// summary is perfbench's last line of standard output.
type summary struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`

	path string // the run's output file
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) != 3 {
		fmt.Fprintln(stderr, "usage: benchdiff BENCHMARK.json BASE_DIR HEAD_DIR")
		return 2
	}
	sp, err := loadSpec(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	fmt.Fprintf(stdout, "benchdiff: base %s, head %s\n", args[1], args[2])
	rows, failures := compare(sp, args[1], args[2])
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	for _, f := range failures {
		fmt.Fprintln(stderr, "benchdiff: FAIL", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: ok")
	return 0
}

func loadSpec(path string) (spec, error) {
	var sp spec
	data, err := os.ReadFile(path)
	if err != nil {
		return sp, err
	}
	if err := json.Unmarshal(data, &sp); err != nil {
		return sp, fmt.Errorf("%s: %w", path, err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		return sp, fmt.Errorf("%s: no workloads or no end-to-end metrics", path)
	}
	for _, m := range sp.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return sp, fmt.Errorf("%s: metric %s: better is %q, want lower or higher", path, m.Name, m.Better)
		}
	}
	return sp, nil
}

// loadPairs reads one workload's runs on both sides, paired by file name:
// base[i] and head[i] ran with the same seed, one right after the other.
func loadPairs(baseDir, headDir, workload string) (base, head []summary, err error) {
	bs, err := loadRuns(baseDir, workload)
	if err != nil {
		return nil, nil, err
	}
	hs, err := loadRuns(headDir, workload)
	if err != nil {
		return nil, nil, err
	}
	if len(bs) == 0 || len(bs) != len(hs) {
		return nil, nil, fmt.Errorf("%d base and %d head runs; each run needs its pair", len(bs), len(hs))
	}
	names := make([]string, 0, len(bs))
	for name := range bs {
		if _, ok := hs[name]; !ok {
			return nil, nil, fmt.Errorf("%s has no head run to pair with", name)
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base = append(base, bs[name])
		head = append(head, hs[name])
	}
	return base, head, nil
}

// loadRuns reads the summaries of one workload's runs in dir, keyed by file
// name.
func loadRuns(dir, workload string) (map[string]summary, error) {
	paths, err := filepath.Glob(filepath.Join(dir, workload+"-*.out"))
	if err != nil {
		return nil, err
	}
	runs := make(map[string]summary, len(paths))
	for _, p := range paths {
		s, err := loadSummary(p)
		if err != nil {
			return nil, err
		}
		runs[filepath.Base(p)] = s
	}
	return runs, nil
}

// loadSummary parses the last non-empty line of a run's output.
func loadSummary(path string) (summary, error) {
	s := summary{path: path}
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	last := lines[len(lines)-1]
	if last == "" {
		return s, fmt.Errorf("%s: no summary line (did the run fail to build or crash?)", path)
	}
	if err := json.Unmarshal([]byte(last), &s); err != nil {
		return s, fmt.Errorf("%s: last line is not a summary: %w", path, err)
	}
	if s.Metrics == nil {
		return s, fmt.Errorf("%s: summary has no metrics", path)
	}
	return s, nil
}

// compare gates head's runs against base's. rows holds one rendered line
// per workload and metric; failures holds one message per tripped check.
//
// A metric's change is the median over pairs of head's value divided by
// base's. The two runs of a pair ran back to back, so a shift in the host's
// speed over minutes moves both, and the median drops the pairs that a
// shift split.
func compare(sp spec, baseDir, headDir string) (rows, failures []string) {
	fail := func(format string, a ...any) { failures = append(failures, fmt.Sprintf(format, a...)) }
	for _, w := range sp.Workloads {
		base, head, err := loadPairs(baseDir, headDir, w.Name)
		if err != nil {
			fail("%s: %v", w.Name, err)
			continue
		}
		for _, runs := range [][]summary{base, head} {
			for _, s := range runs {
				if !s.Correct {
					fail("%s: %s reported correct:false", w.Name, s.path)
				}
			}
		}
		if fb, fh := failedShare(base), failedShare(head); fh > fb {
			fail("%s: head failed %.4g of operations, base %.4g", w.Name, fh, fb)
		}
		for _, m := range sp.EndToEnd {
			bv, okB := values(base, m.Name)
			hv, okH := values(head, m.Name)
			if !okB || !okH {
				fail("%s %s: missing from a run's summary", w.Name, m.Name)
				continue
			}
			ratios := make([]float64, len(bv))
			for i := range bv {
				ratios[i] = 1
				if hv[i] != bv[i] {
					ratios[i] = hv[i] / bv[i]
				}
			}
			delta := median(ratios) - 1
			worse := delta
			if m.Better == "higher" {
				worse = -delta
			}
			status := "ok"
			if worse > m.Bound {
				status = "FAIL"
				fail("%s %s: head is %.1f%% worse than base, median over %d pairs (bound %.0f%%, %s is better)",
					w.Name, m.Name, worse*100, len(ratios), m.Bound*100, m.Better)
			}
			rows = append(rows, fmt.Sprintf("  %-4s %-16s %-12s base %10.4g  head %10.4g  paired %+7.1f%%  (bound %.0f%%, %d pairs)",
				status, w.Name, m.Name, median(bv), median(hv), delta*100, m.Bound*100, len(ratios)))
		}
	}
	return rows, failures
}

// failedShare is the share of a side's operations its runs failed.
func failedShare(runs []summary) float64 {
	var failed, attempted int
	for _, s := range runs {
		failed += s.Failed
		attempted += s.Attempted
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// values lists metric name over runs; ok is false when a run lacks it.
func values(runs []summary, name string) (vs []float64, ok bool) {
	for _, s := range runs {
		m, ok := s.Metrics[name]
		if !ok {
			return nil, false
		}
		vs = append(vs, m.Value)
	}
	return vs, true
}

// median is the median of vs, which it sorts.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
