package busytime_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchLedgersDecode keeps the checked-in BENCH_*.json ledgers
// machine-readable: every file must decode as JSON.
func TestBenchLedgersDecode(t *testing.T) {
	files, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no BENCH_*.json files found")
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(data, &v); err != nil {
			t.Errorf("%s: %v", f, err)
		}
	}
}
