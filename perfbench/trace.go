package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark operation share
// Op; Parent indexes the span that caused this one (-1 for a root).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, so untraced runs pay one nil check per call site.
// The mutex serializes the runner's progress stream, which reports cells from
// worker goroutines, with spans opened on the main goroutine.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: start, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (a runner cell
// reported on the progress stream), ending now.
func (t *tracer) add(name string, parent int, op int64, d time.Duration) {
	if t == nil {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: end - int64(d), End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

// durations lists the durations of the spans named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfNsPerInstr is a layer's self time per instruction: the host time of
// the span around the layer, less the part of it that a layer it calls took
// when timed on its own over the same instruction stream.
func selfNsPerInstr(span time.Duration, instrs uint64, callee time.Duration, calleeInstrs uint64) float64 {
	return ratio(float64(span), float64(instrs)) - ratio(float64(callee), float64(calleeInstrs))
}

// layers are the modules whose CPU share the traced run reports. "other"
// collects the remaining repository code (the lukewarm facade, workload,
// stats, topdown, baselines, trace and this benchmark's own harness); "go"
// collects samples with no repository frame at all (GC workers, scheduler).
var layers = []string{
	"program", "cpu", "mem", "vm", "core", "reap", "predict", "sched",
	"serverless", "cluster", "runner", "experiments", "pif", "faults",
	"other", "go",
}

// moduleOf maps a symbolized function name to its layer; ok is false for
// frames outside the repository (runtime and standard library).
func moduleOf(fn string) (layer string, ok bool) {
	const internal = "lukewarm/internal/"
	switch {
	case strings.HasPrefix(fn, internal):
		pkg := fn[len(internal):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range layers {
			if l == pkg {
				return l, true
			}
		}
		return "other", true
	case strings.HasPrefix(fn, "lukewarm."), strings.HasPrefix(fn, "main."):
		return "other", true
	}
	return "", false
}

// foldTraces reads `go tool pprof -traces` output and charges every sample
// to the innermost repository frame on its stack, so runtime work a layer
// causes (map lookups, allocation, GC assist) lands on that layer. Samples
// with no repository frame go to "go". It returns each layer's share of all
// samples, in percent.
func foldTraces(text string) (map[string]float64, error) {
	totals := map[string]time.Duration{}
	var all time.Duration
	var val time.Duration
	var charged, inBlock bool
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			if inBlock && !charged {
				totals["go"] += val
			}
			inBlock, charged, val = true, false, 0
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		fn := fields[0]
		// A block's first line carries the sample value before its frame.
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) > 1 {
			val = d
			all += d
			fn = fields[1]
		}
		if charged {
			continue
		}
		if l, ok := moduleOf(fn); ok {
			totals[l] += val
			charged = true
		}
	}
	if inBlock && !charged {
		totals["go"] += val
	}
	if all == 0 {
		return nil, fmt.Errorf("fold: profile holds no samples")
	}
	shares := map[string]float64{}
	for _, l := range layers {
		shares[l] = 100 * float64(totals[l]) / float64(all)
	}
	return shares, nil
}

// foldProfiles runs the toolchain's pprof over the CPU profiles and folds
// its stack listing.
func foldProfiles(paths []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-traces"}, paths...)
	cmd := exec.Command("go", args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	return foldTraces(string(out))
}
