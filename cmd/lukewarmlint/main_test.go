package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"lukewarm/internal/analysis"
	"lukewarm/internal/analysis/perf"
)

// TestMain runs every test from the module root, where the perf gate's
// diagnostic rebuild must start.
func TestMain(m *testing.M) {
	if err := os.Chdir("../.."); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// lint runs the command and returns its exit status and output.
func lint(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunCleanFixture(t *testing.T) {
	code, stdout, stderr := lint(t, "./internal/analysis/perf/testdata/compiled/clean")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, want 0 and no findings; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
}

func TestRunFindings(t *testing.T) {
	code, stdout, stderr := lint(t, "./internal/analysis/perf/testdata/compiled/violate")
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "[perfgate] hotpath escapes declares noalloc") {
		t.Errorf("findings miss the planted escape:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr lacks the finding count: %q", stderr)
	}
}

func TestRunUsageAndLoadErrors(t *testing.T) {
	for _, args := range [][]string{{"-perf=false"}, {"-nope"}, {"./does/not/exist"}} {
		if code, _, stderr := lint(t, args...); code != 2 || stderr == "" {
			t.Errorf("%v: exit %d, stderr %q; want 2 with a message", args, code, stderr)
		}
	}
}

func TestRunList(t *testing.T) {
	code, stdout, _ := lint(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit %d, want 0", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	var want []string
	for _, a := range append(analysis.All(), perf.Analyzers()...) {
		want = append(want, a.Name)
	}
	want = append(want, "perfgate")
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Errorf("-list names %v, want %v", names, want)
	}
	for _, gone := range []string{"hothygiene", "allocsite"} {
		if strings.Contains(stdout, gone) {
			t.Errorf("-list still names the deleted %s analyzer", gone)
		}
	}
}
