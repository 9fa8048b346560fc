package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestRejectsBadFlags runs the CLI in a child process (the test binary
// re-entering main) and checks that flag values the search or the platform
// cannot honor exit non-zero with the shared wording, instead of silently
// running with defaults.
func TestRejectsBadFlags(t *testing.T) {
	if args := os.Getenv("SOMA_TEST_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"soma"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct{ args, want string }{
		{"-beta1 -3", "soma: dse: beta1/beta2 must be >= 0, got -3/0"},
		{"-beta2 -1", "soma: dse: beta1/beta2 must be >= 0, got 0/-1"},
		{"-buf -5", "soma: dse: gbuf_mb must be >= 0, got -5"},
		{"-dram -1", "soma: dse: dram_gbps must be >= 0, got -1"},
		{"-hw tpu", "soma: hw: unknown platform"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRejectsBadFlags$")
		cmd.Env = append(os.Environ(), "SOMA_TEST_MAIN_ARGS="+tc.args+" -profile fast")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("soma %s: exit %v, want non-zero\n%s", tc.args, err, out)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("soma %s: output %q, want %q", tc.args, out, tc.want)
		}
	}
}
