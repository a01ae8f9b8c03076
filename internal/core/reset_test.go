package core_test

import (
	"context"
	"testing"

	"busytime/internal/algo"
	_ "busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/decomp"
	"busytime/internal/generator"
)

// TestWarmChunkedResetCeiling pins what recycling schedules costs the
// decomposition layer's chunk path on the benchmark ledger's
// offline-clustered input (the clustered scenario at seed 1, n 50000, g 3:
// 50,004 jobs in 4,321 components). A warm FirstFit solve on two arenas
// draws 32 chunk schedules and then the stitch merge's sealed assembly on
// the caller's arena; each reset clears only what its predecessor on the
// arena touched — the jobs it placed and the buckets it marked — so the
// solves clear at most 3.2 assignment entries and bitmap words per job,
// where whole-instance resets cleared about 67.
func TestWarmChunkedResetCeiling(t *testing.T) {
	const ceiling, solves = 3.2, 4
	in := generator.Clustered(1, 4167, 12, 3, 9, 6)
	a, _ := algo.Lookup("firstfit")
	r := decomp.NewRunner()
	sc, arena := new(core.Scratch), new(core.Scratch)
	pool := make(chan *core.Scratch, 1)
	pool <- arena
	clears := func() (entries, words int) {
		e1, w1 := sc.ResetClears()
		e2, w2 := arena.ResetClears()
		return e1 + e2, w1 + w2
	}
	var e0, w0 int
	for i := -2; i < solves; i++ {
		if i == 0 {
			// Two solves warm both arenas: the measured ones each start
			// from the previous solve's assembly and chunks.
			e0, w0 = clears()
		}
		s, st, err := r.Solve(context.Background(), in, a.Decompose, sc, pool, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if s == nil || st.Components != 4321 || st.Workers != 2 {
			t.Fatalf("solve %d: schedule %v, %d components on %d workers; want the chunk path over 4,321 components on 2", i, s != nil, st.Components, st.Workers)
		}
	}
	e, w := clears()
	n := float64(in.N())
	perEntries, perWords := float64(e-e0)/solves/n, float64(w-w0)/solves/n
	t.Logf("per warm solve: %d assignment entries and %d bitmap words cleared, %.3f per job", (e-e0)/solves, (w-w0)/solves, perEntries+perWords)
	if perEntries+perWords > ceiling {
		t.Errorf("resets clear %.3f assignment entries and %.3f bitmap words per job per warm solve; ceiling %.1f in all", perEntries, perWords, ceiling)
	}
}
