package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lukewarm"
)

// cheap keeps every experiment run in these tests to one function and one
// measured invocation.
var cheap = []string{"-funcs", "Auth-G", "-measure", "1", "-warmup", "1"}

// runCLI executes one command line and returns its exit status and output.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunNoArgumentIsUsageError(t *testing.T) {
	code, stdout, stderr := runCLI()
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if stdout != "" {
		t.Errorf("usage leaked to stdout: %q", stdout)
	}
	// The usage text lists every registry entry and selectable table.
	for _, e := range lukewarm.Experiments() {
		for _, name := range append([]string{e.Name}, e.Tables...) {
			if !strings.Contains(stderr, name) {
				t.Errorf("usage does not list %q", name)
			}
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	code, stdout, stderr := runCLI("nope")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, `unknown experiment "nope"`) {
		t.Errorf("stderr = %q", stderr)
	}
	if stdout != "" {
		t.Errorf("stdout = %q", stdout)
	}
}

// TestRunProfilesOnFailure pins the profile flush on the error path: a
// failing profiled run still leaves a complete CPU profile behind.
func TestRunProfilesOnFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.prof")
	if code, _, _ := runCLI("-cpuprofile", path, "nope"); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("CPU profile is empty")
	}
}

func TestRunTable1(t *testing.T) {
	code, stdout, stderr := runCLI("table1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.HasPrefix(stdout, "== Table 1: simulated processor parameters") {
		t.Errorf("stdout does not open with Table 1:\n%s", stdout)
	}
	if !strings.Contains(stdout, "(table1 completed in ") {
		t.Errorf("no completion line:\n%s", stdout)
	}
}

// TestRunAcceptsEveryName resolves every registry name and every
// selectable table name, then runs one table alone end to end.
func TestRunAcceptsEveryName(t *testing.T) {
	for _, e := range lukewarm.Experiments() {
		if got, table, ok := lookup(e.Name); !ok || got.Name != e.Name || table != -1 {
			t.Errorf("lookup(%q) = %q, %d, %v", e.Name, got.Name, table, ok)
		}
		for i, name := range e.Tables {
			if got, table, ok := lookup(name); !ok || got.Name != e.Name || table != i {
				t.Errorf("lookup(%q) = %q, %d, %v; want %q, %d", name, got.Name, table, ok, e.Name, i)
			}
		}
	}
	code, stdout, stderr := runCLI(append(cheap, "fig6b")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Figure 6b") || strings.Contains(stdout, "Figure 6a") {
		t.Errorf("fig6b must render Figure 6b alone:\n%s", stdout)
	}
}

// TestRunAllReportOrder runs every experiment and checks that the run
// report lists them in registry order.
func TestRunAllReportOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	code, _, stderr := runCLI(append(cheap, "-report", path, "all")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep runReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, e := range rep.Experiments {
		got = append(got, e.Experiment)
	}
	for _, e := range lukewarm.Experiments() {
		want = append(want, e.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("report order\n got %v\nwant %v", got, want)
	}
	if len(rep.Headline) == 0 {
		t.Error("report carries no headline metrics")
	}
}
