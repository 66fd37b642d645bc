package experiments

import (
	"strings"
	"sync"
	"testing"

	"lukewarm/internal/runner"
	"lukewarm/internal/sched"
)

// clusterTestOptions keeps the fleet sweep tractable for CI: a small
// cross-language suite and few invocations, with auditing on so every cell
// is checked against the fleet conservation invariants.
func clusterTestOptions() Options {
	return Options{
		Functions: []string{"Auth-G", "Email-P", "Pay-N", "Geo-G"},
		Warmup:    1,
		Measure:   3,
		Audit:     true,
	}
}

// clusterMemo holds the cluster sweep at clusterTestOptions. Every test of the
// sweep reads this one result, so the sweep runs once per test binary.
var clusterMemo struct {
	sync.Once
	r   ClusterResult
	err error
}

func clusterTestResult(t *testing.T) ClusterResult {
	t.Helper()
	clusterMemo.Do(func() { clusterMemo.r, clusterMemo.err = Cluster(clusterTestOptions()) })
	if clusterMemo.err != nil {
		t.Fatal(clusterMemo.err)
	}
	return clusterMemo.r
}

func TestClusterSweep(t *testing.T) {
	r := clusterTestResult(t)
	want := len(clusterFleetPlacers) * len(clusterFaultLevels) * len(clusterNodeCounts)
	if len(r.Rows) != want {
		t.Fatalf("cluster sweep has %d rows, want %d", len(r.Rows), want)
	}
	for _, row := range r.Rows {
		if row.C.Served == 0 {
			t.Errorf("%s/%s/nodes=%d served nothing", row.Policy, row.FaultLevel, row.Nodes)
		}
		switch row.FaultLevel {
		case "none":
			if row.C.AvailabilityPct != 100 {
				t.Errorf("%s/nodes=%d fault-free availability = %.2f%%, want 100%%",
					row.Policy, row.Nodes, row.C.AvailabilityPct)
			}
			if row.C.Injections != 0 {
				t.Errorf("%s/nodes=%d injected %d faults with no plan armed",
					row.Policy, row.Nodes, row.C.Injections)
			}
		case "heavy":
			// Moderate faults may dodge a small test cell entirely; the
			// heavy level must not.
			if row.C.Injections == 0 {
				t.Errorf("%s/heavy/nodes=%d armed faults but injected nothing",
					row.Policy, row.Nodes)
			}
		}
	}
	// The fault axis must bite: heavy faults cost availability relative to
	// the clean run on the largest swept fleet.
	nodes := clusterNodeCounts[len(clusterNodeCounts)-1]
	clean, okC := r.Row(nodes, clusterFleetPlacers[0], "none")
	heavy, okH := r.Row(nodes, clusterFleetPlacers[0], "heavy")
	if !okC || !okH {
		t.Fatal("sweep missing clean or heavy row for the largest fleet")
	}
	if heavy.C.AvailabilityPct >= clean.C.AvailabilityPct {
		t.Errorf("heavy faults did not cost availability: %.2f%% vs clean %.2f%%",
			heavy.C.AvailabilityPct, clean.C.AvailabilityPct)
	}
	if heavy.C.NodeCrashes == 0 {
		t.Error("heavy fault level fired no node crashes")
	}
	if heavy.C.Retries == 0 {
		t.Error("heavy faults exercised no retries")
	}
	if h := r.HeavyAvailabilityPct(); h <= 0 || h >= 100 {
		t.Errorf("headline heavy availability = %.2f%%, want strictly between 0 and 100", h)
	}
}

func TestClusterTables(t *testing.T) {
	r := clusterTestResult(t)
	tbl := r.Table().String()
	lat := r.LatencyTable().String()
	for _, frag := range []string{"EarliestAvailable", "StickyAffinity", "heavy", "moderate"} {
		if !strings.Contains(tbl, frag) {
			t.Errorf("sweep table missing %q:\n%s", frag, tbl)
		}
		if !strings.Contains(lat, frag) {
			t.Errorf("latency table missing %q:\n%s", frag, lat)
		}
	}
	if !strings.Contains(tbl, "100.0%") {
		t.Errorf("sweep table shows no fault-free cell at full availability:\n%s", tbl)
	}
}

// TestClusterJobKeyCoversWholeSetup pins the cache's invalidation claim for
// custom setups: two fleet jobs that differ only in a fault level's down
// time (which no hand-written tag of the sweep's parameters included) sit
// at different addresses, and a job holding a value with no canonical
// rendering is rejected rather than keyed by part of its content.
func TestClusterJobKeyCoversWholeSetup(t *testing.T) {
	opt := Options{Audit: true}
	names := []string{"Auth-G", "Email-P"}
	level := clusterFaultLevels[1]
	longer := level
	longer.downMs *= 2
	a := newClusterJob(opt, names, 2, "EarliestAvailable", level, 3)
	b := newClusterJob(opt, names, 2, "EarliestAvailable", longer, 3)
	ka, err := runner.Key(a)
	if err != nil {
		t.Fatal(err)
	}
	kb, err := runner.Key(b)
	if err != nil {
		t.Fatal(err)
	}
	if ka == kb {
		t.Errorf("jobs with NodeDownMs %g and %g share key %016x", a.cfg.NodeDownMs, b.cfg.NodeDownMs, ka)
	}
	if again, _ := runner.Key(newClusterJob(opt, names, 2, "EarliestAvailable", level, 3)); again != ka {
		t.Error("equal jobs built twice have different keys")
	}

	withFunc := a
	withFunc.cfg.NodePlacer = sched.EarliestAvailable
	if _, err := runner.Key(withFunc); err == nil {
		t.Error("a job holding a func was keyed")
	}
	type withMap struct {
		clusterJob
		extra map[string]int
	}
	if _, err := runner.Key(withMap{a, map[string]int{"x": 1}}); err == nil {
		t.Error("a job holding a map was keyed")
	}
}
