package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/harness"
)

// argsEnv carries a command line into a re-executed test binary, which
// then runs the real main and exits with its code.
const argsEnv = "EXPERIMENTS_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"experiments"}, strings.Fields(args)...)
		main()
		os.Exit(cli.ExitOK)
	}
	os.Exit(m.Run())
}

// TestFlagRangesExitUsage pins that out-of-range numeric flags are
// rejected with exit code 2 instead of being replaced by a default,
// while -par 0 and -cache-max-bytes 0 keep their documented meanings
// (NumCPU, unbounded).
func TestFlagRangesExitUsage(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-scale 0", cli.ExitUsage},
		{"-scale -4", cli.ExitUsage},
		{"-scale NaN", cli.ExitUsage},
		{"-scale +Inf", cli.ExitUsage},
		{"-trh 0", cli.ExitUsage},
		{"-trh -500", cli.ExitUsage},
		{"-par -1", cli.ExitUsage},
		{"-cache-max-bytes -1", cli.ExitUsage},
		{"-cache-dir " + t.TempDir() + " -cache-max-bytes -1", cli.ExitUsage},
		{"-par 0 -cache-max-bytes 0", cli.ExitOK},
		{"-scale 64 -trh 500 -par 1", cli.ExitOK},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), argsEnv+"="+tc.args+" table1")
		out, _ := cmd.CombinedOutput()
		if got := cmd.ProcessState.ExitCode(); got != tc.want {
			t.Errorf("experiments %s table1: exit %d, want %d\n%s", tc.args, got, tc.want, out)
		}
	}
}

// TestCacheSummaryReportsStoreErrors pins that a failed disk write is
// visible on the console: the cache directory is the only resume
// store, so an entry that never reached disk must not hide in the
// JSON report alone.
func TestCacheSummaryReportsStoreErrors(t *testing.T) {
	s := harness.CacheStats{Hits: 3, DiskHits: 3, Misses: 2, Stores: 2, StoreErrors: 1}
	if got := cacheSummary(s, true); !strings.Contains(got, ", 1 store errors]") {
		t.Fatalf("summary hides the store error: %s", got)
	}
	s.StoreErrors = 0
	if got := cacheSummary(s, true); strings.Contains(got, "store errors") {
		t.Fatalf("summary reports store errors that did not happen: %s", got)
	}
}
