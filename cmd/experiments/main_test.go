package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

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
