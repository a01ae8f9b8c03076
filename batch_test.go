package busytime_test

import (
	"bytes"
	"context"
	"math"
	"sync"
	"testing"

	"busytime"
	"busytime/internal/generator"
)

// mixedBatch builds a batch spanning four generator families. All
// randomness derives from the per-index seed.
func mixedBatch(n int) []*busytime.Instance {
	out := make([]*busytime.Instance, 0, 4*n)
	for i := 0; i < n; i++ {
		seed := int64(1000 + i)
		out = append(out,
			generator.General(seed, 300, 3, 200, 25),
			generator.Proper(seed, 200, 4, 150, 20),
			generator.CloudBurst(seed, 400, 8, 500, 12, 5, 0.6),
			generator.LightpathWave(seed, 8, 40, 6, 50, 20, 15),
		)
	}
	return out
}

// streamOf returns a SolveStream source over batch.
func streamOf(batch []*busytime.Instance) func() (*busytime.Instance, bool) {
	i := 0
	return func() (*busytime.Instance, bool) {
		if i >= len(batch) {
			return nil, false
		}
		i++
		return batch[i-1], true
	}
}

// stripTelemetry zeroes the fields that depend on worker count and pool
// pressure, which determinism contracts exclude (as serialization does).
func stripTelemetry(r busytime.BatchResult) busytime.BatchResult {
	r.Warm, r.SetupAllocs = false, 0
	r.Components, r.IntraWorkers, r.Shards = 0, 0, 0
	return r
}

// TestSolveBatchRejectsBadItems pins per-item validation: every item Solve
// rejects — nil included — carries Solve's error in Err, and the valid
// items around them equal Solve.
func TestSolveBatchRejectsBadItems(t *testing.T) {
	job := func(id int, start, end float64, demand int) busytime.Job {
		return busytime.Job{ID: id, Iv: busytime.Interval{Start: start, End: end}, Demand: demand}
	}
	batch := []*busytime.Instance{
		generator.General(1, 50, 3, 100, 10),
		{Name: "reversed", G: 2, Jobs: []busytime.Job{job(0, 0, 2, 1), job(1, 3, 1, 1)}},
		{Name: "nan", G: 2, Jobs: []busytime.Job{job(0, math.NaN(), 2, 1)}},
		{Name: "duplicate-ids", G: 2, Jobs: []busytime.Job{job(0, 0, 2, 1), job(0, 1, 3, 1)}},
		{Name: "demand-over-g", G: 2, Jobs: []busytime.Job{job(0, 0, 2, 3)}},
		{Name: "g-zero", G: 0},
		nil,
		generator.General(2, 50, 3, 100, 10),
	}
	s, err := busytime.New(busytime.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(batch) {
		t.Fatalf("got %d results, want %d", len(res), len(batch))
	}
	for i, in := range batch {
		r := res[i]
		if r.Index != i {
			t.Errorf("item %d: Index %d", i, r.Index)
		}
		want, serr := s.Solve(context.Background(), in)
		if serr != nil {
			if r.Err != serr.Error() {
				t.Errorf("item %d: Err %q, want Solve's %q", i, r.Err, serr)
			}
			if r.Machines != 0 || r.Cost != 0 || r.LowerBound != 0 || r.Ratio != 0 {
				t.Errorf("item %d: failing item carries schedule fields %+v", i, r)
			}
			continue
		}
		if i != 0 && i != len(batch)-1 {
			t.Fatalf("item %d: Solve accepted a bad instance", i)
		}
		if r.Err != "" || r.Name != in.Name || r.N != in.N() || r.G != in.G ||
			r.Machines != want.Machines || r.Cost != want.Cost ||
			r.LowerBound != want.LowerBound() || r.Ratio != want.Ratio() {
			t.Errorf("item %d: batch %+v, Solve machines=%d cost=%v lb=%v", i, r, want.Machines, want.Cost, want.LowerBound())
		}
	}
	// The same items from a stream, whose next returns (nil, true) once.
	stream, err := s.SolveStream(context.Background(), streamOf(batch))
	if err != nil {
		t.Fatal(err)
	}
	for i := range res {
		if stripTelemetry(stream[i]) != stripTelemetry(res[i]) {
			t.Errorf("item %d: stream %+v != batch %+v", i, stream[i], res[i])
		}
	}
}

// TestSolveBatchDeterministicAcrossWorkers is the fan-out's determinism
// contract: CSV and JSON output is byte-identical at every worker count,
// including a second run on the first session's warm arenas.
func TestSolveBatchDeterministicAcrossWorkers(t *testing.T) {
	batch := mixedBatch(8)
	solvers := map[int]*busytime.Solver{}
	var wantCSV, wantJSON []byte
	for _, workers := range []int{1, 4, 8, 1} {
		s := solvers[workers]
		if s == nil {
			var err error
			if s, err = busytime.New(busytime.WithWorkers(workers), busytime.WithVerify(true)); err != nil {
				t.Fatal(err)
			}
			solvers[workers] = s
		}
		res, err := s.SolveBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		var csvOut, jsonOut bytes.Buffer
		if err := busytime.WriteBatchCSV(&csvOut, res); err != nil {
			t.Fatal(err)
		}
		if err := busytime.WriteBatchJSON(&jsonOut, res); err != nil {
			t.Fatal(err)
		}
		if wantCSV == nil {
			wantCSV, wantJSON = csvOut.Bytes(), jsonOut.Bytes()
			for _, r := range res {
				if r.Err != "" {
					t.Errorf("instance %d (%s): %s", r.Index, r.Name, r.Err)
				}
				if r.Machines == 0 || r.Cost <= 0 || r.LowerBound <= 0 || r.Ratio < 1-1e-9 {
					t.Errorf("instance %d (%s): implausible result %+v", r.Index, r.Name, r)
				}
			}
			continue
		}
		if !bytes.Equal(csvOut.Bytes(), wantCSV) {
			t.Errorf("workers=%d: CSV differs from the one-worker run:\n%s\nwant:\n%s", workers, csvOut.Bytes(), wantCSV)
		}
		if !bytes.Equal(jsonOut.Bytes(), wantJSON) {
			t.Errorf("workers=%d: JSON differs from the one-worker run", workers)
		}
	}
}

// TestSolveStreamMatchesSolveBatch checks that shard-by-shard stream
// processing returns what the slice API does. 70 instances make one full
// 64-instance shard and one partial shard.
func TestSolveStreamMatchesSolveBatch(t *testing.T) {
	batch := make([]*busytime.Instance, 70)
	for i := range batch {
		batch[i] = clustered(int64(i))
	}
	for _, intra := range []bool{false, true} {
		opts := []busytime.Option{busytime.WithWorkers(2), busytime.WithVerify(true)}
		if intra {
			opts = append(opts, busytime.WithIntraWorkers(2))
		}
		s, err := busytime.New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.SolveBatch(context.Background(), batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.SolveStream(context.Background(), streamOf(batch))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(batch) || len(want) != len(batch) {
			t.Fatalf("intra=%v: stream %d / batch %d results, want %d", intra, len(got), len(want), len(batch))
		}
		for k := range want {
			if want[k].Err != "" {
				t.Fatalf("intra=%v: instance %d: %s", intra, k, want[k].Err)
			}
			if stripTelemetry(got[k]) != stripTelemetry(want[k]) {
				t.Errorf("intra=%v: result %d: stream %+v != batch %+v", intra, k, got[k], want[k])
			}
		}
		if sum := busytime.SummarizeBatch(got); intra && sum.Components == 0 {
			t.Error("stream never consulted the decomposition layer")
		}
	}
}

// TestSolveStreamWarmArenas checks that one arena serves the whole stream,
// across shard boundaries: with one worker, every run after the first
// re-serves a seen shape warm, with no setup allocation.
func TestSolveStreamWarmArenas(t *testing.T) {
	const n = 70
	i := 0
	next := func() (*busytime.Instance, bool) {
		if i >= n {
			return nil, false
		}
		i++
		return generator.General(9, 400, 3, 150, 12), true
	}
	s, err := busytime.New(busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveStream(context.Background(), next)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	if res[0].Warm || res[0].SetupAllocs == 0 {
		t.Errorf("first run: warm=%v setup allocs=%d, want a cold arena that allocates", res[0].Warm, res[0].SetupAllocs)
	}
	for k := 1; k < n; k++ {
		if !res[k].Warm || res[k].SetupAllocs != 0 {
			t.Errorf("run %d: warm=%v setup allocs=%d, want warm with 0", k, res[k].Warm, res[k].SetupAllocs)
		}
	}
	sum := busytime.SummarizeBatch(res)
	if sum.Runs != n || sum.WarmRuns != n-1 {
		t.Errorf("SummarizeBatch = %+v, want %d runs with %d warm", sum, n, n-1)
	}
	if got, want := sum.HitRate(), float64(n-1)/float64(n); got != want {
		t.Errorf("HitRate = %v, want %v", got, want)
	}
}

// TestSummarizeBatchSeparatesShardedRuns folds hand-built results: a
// time-sharded run also reports the workers that solved its shards, and it
// must count as sharded only, never as component-parallel.
func TestSummarizeBatchSeparatesShardedRuns(t *testing.T) {
	cases := []struct {
		name    string
		results []busytime.BatchResult
		want    busytime.BatchSummary
	}{
		{"plain", []busytime.BatchResult{{}, {Warm: true}},
			busytime.BatchSummary{Runs: 2, WarmRuns: 1}},
		{"declined", []busytime.BatchResult{{Components: 1}},
			busytime.BatchSummary{Runs: 1, Components: 1}},
		{"component-parallel", []busytime.BatchResult{{Components: 9, IntraWorkers: 2}, {Components: 4, IntraWorkers: 3}},
			busytime.BatchSummary{Runs: 2, Components: 13, DecomposedRuns: 2, MaxIntraWorkers: 3}},
		{"time-sharded", []busytime.BatchResult{{Components: 1, IntraWorkers: 2, Shards: 2}, {Components: 1, IntraWorkers: 1, Shards: 2}},
			busytime.BatchSummary{Runs: 2, Components: 2, ShardedRuns: 2, MaxShards: 2}},
		{"mixed", []busytime.BatchResult{{Components: 1, IntraWorkers: 4, Shards: 4}, {Components: 7, IntraWorkers: 2}},
			busytime.BatchSummary{Runs: 2, Components: 8, DecomposedRuns: 1, MaxIntraWorkers: 2, ShardedRuns: 1, MaxShards: 4}},
	}
	for _, tc := range cases {
		if got := busytime.SummarizeBatch(tc.results); got != tc.want {
			t.Errorf("%s: SummarizeBatch = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestSolverConcurrentEntryPoints shares one Solver between goroutines that
// mix Solve, SolveBatch and SolveStream (run with -race): the fan-out leases
// the same arenas and decomposition runners as Solve, and every cost must
// equal a one-worker reference.
func TestSolverConcurrentEntryPoints(t *testing.T) {
	batch := make([]*busytime.Instance, 12)
	for i := range batch {
		batch[i] = clustered(int64(i))
	}
	ref, err := busytime.New(busytime.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(batch))
	for i, in := range batch {
		res, err := ref.Solve(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Cost
	}
	s, err := busytime.New(busytime.WithWorkers(2), busytime.WithIntraWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (g + round) % 3 {
				case 0:
					for i, in := range batch {
						res, err := s.Solve(ctx, in)
						if err != nil || res.Cost != want[i] {
							t.Errorf("goroutine %d: Solve %d: cost %v err %v, want %v", g, i, res.Cost, err, want[i])
						}
					}
				case 1:
					res, err := s.SolveBatch(ctx, batch)
					checkCosts(t, "SolveBatch", res, err, want)
				default:
					res, err := s.SolveStream(ctx, streamOf(batch))
					checkCosts(t, "SolveStream", res, err, want)
				}
			}
		}()
	}
	wg.Wait()
}

func checkCosts(t *testing.T, entry string, res []busytime.BatchResult, err error, want []float64) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: %v", entry, err)
		return
	}
	if len(res) != len(want) {
		t.Errorf("%s: %d results, want %d", entry, len(res), len(want))
		return
	}
	for i, r := range res {
		if r.Err != "" || r.Cost != want[i] {
			t.Errorf("%s: instance %d: cost %v err %q, want %v", entry, i, r.Cost, r.Err, want[i])
		}
	}
}
