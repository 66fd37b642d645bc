package check

import (
	"cmp"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"lukewarm/internal/experiments"
	"lukewarm/internal/runner"
	"lukewarm/internal/stats"
)

// update rewrites the golden snapshots instead of comparing against them
// (package path before the flag, or go test hands the path to the wrong
// binary):
//
//	go test ./internal/check -run Golden -update
var update = flag.Bool("update", false, "rewrite golden snapshots in testdata/golden")

// goldenOpts is the canonical small configuration every experiment is
// snapshotted under: two functions, one warm-up, two measured invocations,
// five traced invocations per footprint and chaos seed 42 — big enough that
// every code path runs, small enough to stay test-speed.
func goldenOpts(eng *runner.Engine) experiments.Options {
	return experiments.Options{
		Warmup:               1,
		Measure:              2,
		Functions:            []string{"Auth-G", "Email-P"},
		Engine:               eng,
		Seed:                 42,
		FootprintInvocations: 5,
	}
}

// TestGoldenExperiments iterates the experiment registry, regenerates every
// experiment's tables and holds them to the checked-in snapshots under the
// entry's tolerance (or refreshes the snapshots with -update). One engine
// spans all experiments, as in the CLI, so shared cells are simulated once.
func TestGoldenExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("golden regression runs every experiment; skipped in -short mode")
	}
	eng := runner.Default()
	seen := map[string]string{}
	for _, e := range experiments.Registry() {
		name := cmp.Or(e.Golden, e.Name)
		t.Run(name, func(t *testing.T) {
			out, err := e.Run(goldenOpts(eng))
			if err != nil {
				t.Fatalf("running %s: %v", name, err)
			}
			for _, tb := range out.Tables {
				path := filepath.Join("testdata", "golden", tb.Slug()+".json")
				if prev, dup := seen[path]; dup {
					t.Fatalf("table slug collision: %s and %s both map to %s", prev, name, path)
				}
				seen[path] = name
				if *update {
					g, err := Snapshot(tb, e.TolPct)
					if err != nil {
						t.Fatal(err)
					}
					if err := WriteGolden(path, g); err != nil {
						t.Fatal(err)
					}
					continue
				}
				g, err := ReadGolden(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := g.Compare(tb); err != nil {
					t.Errorf("%s: %v\n(refresh with `go test ./internal/check -run Golden -update` if the change is intended)",
						filepath.Base(path), err)
				}
			}
		})
	}
}

// TestGoldenCompare unit-tests the tolerance machinery itself on synthetic
// tables, independent of the experiment snapshots.
func TestGoldenCompare(t *testing.T) {
	mk := func(cpi string) *stats.Table {
		tb := stats.NewTable("Synthetic: compare", "func", "cpi", "speedup", "share")
		tb.AddRow("Auth-G", cpi, "1.53x", "12.3%")
		return tb
	}
	g, err := Snapshot(mk("2.00"), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Compare(mk("2.01")); err != nil {
		t.Fatalf("0.5%% drift rejected under 1%% tolerance: %v", err)
	}
	if err := g.Compare(mk("2.10")); err == nil {
		t.Fatal("5% drift accepted under 1% tolerance")
	}
	bad := mk("2.00")
	bad.AddRow("Email-P", "1.00", "1.00x", "0.0%")
	if err := g.Compare(bad); err == nil {
		t.Fatal("extra row accepted")
	}

	// Unit suffixes parse; non-numeric cells require exact equality.
	if v, ok := numericCell("1.53x"); !ok || v != 1.53 {
		t.Fatalf("numericCell(1.53x) = %v, %v", v, ok)
	}
	if v, ok := numericCell("12.3%"); !ok || v != 12.3 {
		t.Fatalf("numericCell(12.3%%) = %v, %v", v, ok)
	}
	if _, ok := numericCell("Auth-G"); ok {
		t.Fatal("numericCell accepted a function name")
	}
	if fmt.Sprint(g.Header) != "[func cpi speedup share]" {
		t.Fatalf("header round-trip: %v", g.Header)
	}
}
