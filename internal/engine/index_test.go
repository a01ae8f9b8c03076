package engine

import (
	"context"
	"testing"
)

// TestIndexedEngineDeterministicUnderParallelism re-runs the same batch
// through the indexed FirstFit at several worker counts, twice each; every
// run must produce identical results. Under `go test -race` this also
// checks that the per-worker recycled machine-selection indexes share no
// state.
func TestIndexedEngineDeterministicUnderParallelism(t *testing.T) {
	batch := mixedBatch(6)
	var want []Result
	for _, workers := range []int{1, 4, 8, 1, 4} {
		got, err := Run(context.Background(), batch, Options{Algorithm: "firstfit", Workers: workers, Verify: true})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if stripPoolTelemetry(got[i]) != stripPoolTelemetry(want[i]) {
				t.Fatalf("workers=%d instance %d: %+v != %+v", workers, i, got[i], want[i])
			}
		}
	}
}
