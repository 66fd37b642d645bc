package main

import (
	"bufio"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
pkg: lukewarm/internal/cluster
cpu: whatever
BenchmarkFleetChaos-8   	       5	 214631842 ns/op
BenchmarkFleetFaultFree-8 	       6	 180000000 ns/op	  12 B/op	   3 allocs/op
PASS
ok  	lukewarm/internal/cluster	3.1s
pkg: lukewarm
BenchmarkExtensionCluster-8 	       1	1000000000 ns/op	        97.50 avail%
`
	recs, err := parse(bufio.NewScanner(strings.NewReader(in)), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3", len(recs))
	}
	if recs[0].Name != "BenchmarkFleetChaos" || recs[0].Package != "lukewarm/internal/cluster" {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[0].Iterations != 5 || recs[0].Metrics["ns/op"] != 214631842 {
		t.Errorf("first record counters = %+v", recs[0])
	}
	if recs[1].Metrics["allocs/op"] != 3 {
		t.Errorf("second record metrics = %+v", recs[1].Metrics)
	}
	if recs[2].Package != "lukewarm" || recs[2].Metrics["avail%"] != 97.5 {
		t.Errorf("third record = %+v", recs[2])
	}

	if _, err := parse(bufio.NewScanner(strings.NewReader("Benchmark-X 2 oops ns/op junk extra\n")), 1); err == nil {
		t.Error("malformed value accepted")
	}
}

// names parses one benchmark output under GOMAXPROCS procs and returns the
// record names.
func names(t *testing.T, in string, procs int) []string {
	t.Helper()
	recs, err := parse(bufio.NewScanner(strings.NewReader(in)), procs)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, r := range recs {
		out = append(out, r.Name)
	}
	return out
}

// TestParseStripsProcsSuffix pins the GOMAXPROCS suffix handling: the -N go
// test appends on an N-core run is stripped, so the gated
// BenchmarkSimulationThroughput keeps the name the committed snapshots use.
func TestParseStripsProcsSuffix(t *testing.T) {
	in := "BenchmarkSimulationThroughput-4 \t 1 \t 900 ns/op \t 9.5 Minstr/s\n" +
		"BenchmarkSweep/size-16-4 \t 1 \t 900 ns/op\n"
	got := strings.Join(names(t, in, 4), " ")
	if want := "BenchmarkSimulationThroughput BenchmarkSweep/size-16"; got != want {
		t.Errorf("names = %q, want %q", got, want)
	}
}

// TestParseKeepsUnsuffixedNames: a GOMAXPROCS=1 run appends nothing, so
// nothing is stripped, including a sub-benchmark whose own name ends in
// -<digits>.
func TestParseKeepsUnsuffixedNames(t *testing.T) {
	in := "BenchmarkSimulationThroughput \t 1 \t 900 ns/op \t 9.5 Minstr/s\n" +
		"BenchmarkSweep/size-16 \t 1 \t 900 ns/op\n"
	got := strings.Join(names(t, in, 1), " ")
	if want := "BenchmarkSimulationThroughput BenchmarkSweep/size-16"; got != want {
		t.Errorf("names = %q, want %q", got, want)
	}
	// On a 16-core run only the appended suffix goes.
	in = "BenchmarkSweep/size-16-16 \t 1 \t 900 ns/op\n"
	if got := names(t, in, 16); len(got) != 1 || got[0] != "BenchmarkSweep/size-16" {
		t.Errorf("names = %q, want [BenchmarkSweep/size-16]", got)
	}
}
