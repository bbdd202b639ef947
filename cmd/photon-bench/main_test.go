package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// Regression test for the exit-code bug: a heap profile that fails to write
// at exit used to only log to stderr while the process exited 0. Any
// requested artifact that cannot be produced must fail the run.
func TestExitNonZeroWhenProfileWriteFails(t *testing.T) {
	var out, errBuf bytes.Buffer
	badPath := filepath.Join(t.TempDir(), "missing-dir", "mem.prof")
	code := realMain([]string{"-exp", "table1", "-memprofile", badPath}, &out, &errBuf)
	if code == 0 {
		t.Fatalf("exit code = 0 with failing -memprofile, want non-zero\nstderr: %s", errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "profiles") {
		t.Errorf("stderr missing profile failure: %q", errBuf.String())
	}
	// The experiment itself ran before the profile failure.
	if !strings.Contains(out.String(), "Table 1") {
		t.Errorf("stdout missing table1 output: %q", out.String())
	}
}

func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"unknown experiment", []string{"-exp", "fig99"}, 2},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		{"version", []string{"-version"}, 0},
		{"table1 ok", []string{"-exp", "table1"}, 0},
		{"json path unwritable", []string{"-exp", "table1", "-json", "/nonexistent-dir/x.jsonl"}, 1},
		// -perf no longer defaults to overwriting a committed report.
		{"perf without perf-out", []string{"-perf"}, 2},
	}
	for _, tc := range cases {
		var out, errBuf bytes.Buffer
		if code := realMain(tc.args, &out, &errBuf); code != tc.want {
			t.Errorf("%s: exit = %d, want %d (stderr: %s)", tc.name, code, tc.want, errBuf.String())
		}
	}
}

func TestVersionFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-version"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.HasPrefix(out.String(), "photon-bench ") || !strings.Contains(out.String(), "go1") {
		t.Errorf("-version output = %q", out.String())
	}
}

// The registry loop must print experiments in registry order and keep the
// blank separator line after each one (stdout byte-compat with the old
// hand-rolled dispatch).
func TestTableExperimentsViaRegistry(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := realMain([]string{"-exp", "table2,table1"}, &out, &errBuf); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, errBuf.String())
	}
	s := out.String()
	t1, t2 := strings.Index(s, "Table 1"), strings.Index(s, "Table 2")
	if t1 < 0 || t2 < 0 || t1 > t2 {
		t.Errorf("registry order broken: table1 at %d, table2 at %d", t1, t2)
	}
	if !strings.HasSuffix(s, "\n\n") {
		t.Errorf("missing blank separator after final experiment: %q", s[len(s)-20:])
	}
}
