package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// tracecap runs the command and returns its exit status and output.
func tracecap(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestRunUsage(t *testing.T) {
	if code, _, stderr := tracecap(t, "run", "-h"); code != 0 || !strings.Contains(stderr, "-platform") {
		t.Errorf("run -h: exit %d, want 0 with the flag list; stderr:\n%s", code, stderr)
	}
	for _, args := range [][]string{
		nil,
		{"replay"},
		{"capture", "-bogus"},
	} {
		code, _, stderr := tracecap(t, args...)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "subcommands:") && !strings.Contains(stderr, "Usage of capture") {
			t.Errorf("%q: stderr lacks usage:\n%s", args, stderr)
		}
	}
}

// TestRoundTrip captures a trace, summarizes it and simulates it on both
// platforms.
func TestRoundTrip(t *testing.T) {
	file := filepath.Join(t.TempDir(), "auth.lwt")
	code, stdout, stderr := tracecap(t, "capture", "-fn", "Auth-G", "-inv", "1", "-o", file)
	if code != 0 || !strings.Contains(stdout, "captured Auth-G invocation 1: ") || !strings.Contains(stdout, "B/instr") {
		t.Fatalf("capture: exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	code, stdout, stderr = tracecap(t, "info", file)
	if code != 0 {
		t.Fatalf("info: exit %d\nstderr:\n%s", code, stderr)
	}
	for _, want := range []string{"instructions: ", "  loads:  ", "  branch: ", " taken\n", "unique footprint: "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("info lacks %q:\n%s", want, stdout)
		}
	}
	for _, platform := range []string{"skylake", "broadwell"} {
		code, stdout, stderr = tracecap(t, "run", "-platform", platform, file)
		if code != 0 {
			t.Fatalf("run %s: exit %d\nstderr:\n%s", platform, code, stderr)
		}
		for _, want := range []string{file + ", ", " instructions in ", " cycles\n", "CPI ", "fetch-lat "} {
			if !strings.Contains(stdout, want) {
				t.Errorf("run %s lacks %q:\n%s", platform, want, stdout)
			}
		}
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.lwt")
	file := filepath.Join(dir, "auth.lwt")
	if code, _, stderr := tracecap(t, "capture", "-fn", "Auth-G", "-o", file); code != 0 {
		t.Fatalf("capture: exit %d: %s", code, stderr)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"info", missing}, "missing.lwt"},
		{[]string{"run", missing}, "missing.lwt"},
		{[]string{"run", "-platform", "zen", file}, `unknown platform "zen"`},
		{[]string{"capture", "-fn", "Auth-G"}, "capture needs -o"},
		{[]string{"capture", "-fn", "NoSuch-X", "-o", file}, "NoSuch-X"},
		{[]string{"info"}, "exactly one trace file"},
	} {
		code, _, stderr := tracecap(t, tc.args...)
		if code != 1 || !strings.HasPrefix(stderr, "tracecap: ") || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: exit %d, want 1 with %q; stderr: %s", tc.args, code, tc.want, stderr)
		}
	}
}
