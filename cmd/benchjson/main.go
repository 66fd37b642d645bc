// Command benchjson converts `go test -bench` text output on stdin into a
// stable JSON document on stdout, so benchmark runs can be checked in and
// diffed as a performance trajectory (BENCH_*.json; see the Makefile's
// bench target).
//
// Usage:
//
//	go test -run '^$' -bench . ./... | benchjson > BENCH_N.json
//
// Each benchmark line becomes one record carrying the package it ran in,
// the iteration count, and every reported metric (ns/op, B/op, custom
// b.ReportMetric units). Non-benchmark lines are ignored, so the tool
// tolerates interleaved PASS/ok/pkg chatter.
//
// go test appends "-N" to every benchmark name when GOMAXPROCS is N > 1;
// benchjson strips exactly that suffix, so snapshots from hosts with
// different core counts name the same benchmarks alike. N is this
// process's GOMAXPROCS, which matches the go test feeding the pipe.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// record is one benchmark result.
type record struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"`
	// Metrics maps unit to value: "ns/op", "B/op", "allocs/op" and any
	// custom units (encoding/json sorts keys, so output is stable).
	Metrics map[string]float64 `json:"metrics"`
}

// parse consumes go test -bench output produced under GOMAXPROCS procs and
// returns the records in input order.
func parse(sc *bufio.Scanner, procs int) ([]record, error) {
	// testing names a benchmark name+"-N" exactly when N != 1.
	suffix := ""
	if procs != 1 {
		suffix = "-" + strconv.Itoa(procs)
	}
	var recs []record
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg:"); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := record{Name: strings.TrimSuffix(fields[0], suffix), Package: pkg, Iterations: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func main() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	recs, err := parse(sc, runtime.GOMAXPROCS(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(recs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
