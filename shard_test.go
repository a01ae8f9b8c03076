package busytime_test

import (
	"context"
	"testing"

	"busytime"
	"busytime/internal/generator"
)

// dense returns a single-component instance: WithTimeSharding's natural
// habitat (component decomposition starves, only the time axis can be cut).
func dense(seed int64) *busytime.Instance {
	return generator.General(seed, 2000, 3, 200, 10)
}

// TestWithTimeShardingValidation pins the option's eager validation.
func TestWithTimeShardingValidation(t *testing.T) {
	if _, err := busytime.New(busytime.WithTimeSharding(-1)); err == nil {
		t.Error("negative shard count accepted")
	}
	if _, err := busytime.New(busytime.WithTimeSharding(0), busytime.WithFreshSchedules()); err != nil {
		t.Errorf("WithTimeSharding + WithFreshSchedules rejected; fresh solves lease the pool too: %v", err)
	}
	if _, err := busytime.New(busytime.WithTimeSharding(1), busytime.WithFreshSchedules()); err != nil {
		t.Errorf("WithTimeSharding(1) is off and should coexist with fresh mode: %v", err)
	}
	if _, err := busytime.New(busytime.WithTimeSharding(0), busytime.WithWorkers(4)); err != nil {
		t.Errorf("auto sharding rejected: %v", err)
	}
}

// TestFreshTimeShardingMatchArena pins WithFreshSchedules under
// WithTimeSharding: the dense input shards in both modes into the same
// schedule, and the clustered one, whose components leave no dominant one
// to cut, is solved alike in both.
func TestFreshTimeShardingMatchArena(t *testing.T) {
	inputs := []*busytime.Instance{dense(2), clustered(2)}
	results := freshMatchesArena(t, inputs, busytime.WithWorkers(2), busytime.WithTimeSharding(2))
	if !results[0].Decomp.Sharded() {
		t.Fatalf("fresh solve of the dense input did not shard: %+v", results[0].Decomp)
	}
}

// TestSolveShardedValidAndReported pins the public sharded path: a dense
// instance under WithTimeSharding produces a feasible (WithVerify-checked)
// schedule, the telemetry reports the shard split, and the cost stays within
// 1.05× of the sequential session's, the envelope
// TestShardedSolveValidAndBounded pins in internal/decomp.
func TestSolveShardedValidAndReported(t *testing.T) {
	for _, name := range []string{"firstfit", "bestfit"} {
		seq, err := busytime.New(busytime.WithAlgorithm(name), busytime.WithVerify(true))
		if err != nil {
			t.Fatal(err)
		}
		shr, err := busytime.New(busytime.WithAlgorithm(name), busytime.WithVerify(true),
			busytime.WithWorkers(4), busytime.WithTimeSharding(4))
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(0); seed < 3; seed++ {
			in := dense(seed)
			want, err := seq.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			got, err := shr.Solve(context.Background(), in)
			if err != nil {
				t.Fatal(err)
			}
			d := got.Decomp
			if !d.Sharded() || d.Shards < 2 {
				t.Fatalf("%s seed=%d: sharding did not engage: %+v", name, seed, d)
			}
			if !d.Decomposed() {
				t.Fatalf("%s seed=%d: Sharded implies Decomposed: %+v", name, seed, d)
			}
			if len(d.PerComponent) != d.Shards {
				t.Fatalf("%s seed=%d: %d per-shard entries for %d shards", name, seed, len(d.PerComponent), d.Shards)
			}
			jobs := 0
			for _, c := range d.PerComponent {
				jobs += c.Jobs
			}
			if jobs != in.N() {
				t.Fatalf("%s seed=%d: shard sizes sum to %d, want %d", name, seed, jobs, in.N())
			}
			if got.Cost > want.Cost*1.05 {
				t.Fatalf("%s seed=%d: sharded cost %v exceeds sequential %v × 1.05", name, seed, got.Cost, want.Cost)
			}
		}
	}
}

// TestTimeShardingOffMatchesSequential pins WithTimeSharding(1) to bitwise
// sequential behavior — the knob's off position must be exactly off.
func TestTimeShardingOffMatchesSequential(t *testing.T) {
	seq, err := busytime.New(busytime.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	off, err := busytime.New(busytime.WithVerify(true), busytime.WithWorkers(4), busytime.WithTimeSharding(1))
	if err != nil {
		t.Fatal(err)
	}
	in := dense(5)
	want, err := seq.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	got, err := off.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Decomp.Sharded() {
		t.Fatalf("WithTimeSharding(1) sharded: %+v", got.Decomp)
	}
	if got.Cost != want.Cost || got.Machines != want.Machines {
		t.Fatalf("off-position differs: (m=%d cost=%v) vs (m=%d cost=%v)",
			got.Machines, got.Cost, want.Machines, want.Cost)
	}
	for j := 0; j < in.N(); j++ {
		if got.Schedule.MachineOf(j) != want.Schedule.MachineOf(j) {
			t.Fatalf("job %d machine %d vs %d", j, got.Schedule.MachineOf(j), want.Schedule.MachineOf(j))
		}
	}
}

// TestSolveBatchSharded pins the batch path: SolveBatch with sharding stays
// verify-clean on dense instances and reports per-result shard telemetry.
func TestSolveBatchSharded(t *testing.T) {
	var batch []*busytime.Instance
	for seed := int64(0); seed < 4; seed++ {
		batch = append(batch, dense(seed))
	}
	s, err := busytime.New(busytime.WithWorkers(4), busytime.WithTimeSharding(4), busytime.WithVerify(true))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.SolveBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != "" {
			t.Fatalf("index %d: %s", i, r.Err)
		}
		if r.Machines == 0 {
			t.Fatalf("index %d: empty schedule", i)
		}
	}
	// Whether a given batch instance shards depends on momentary pool
	// pressure (batch fan-out and shard fan-out share the arena pool), so
	// only the aggregate is asserted: the summary folds the telemetry and
	// stays self-consistent.
	sum := busytime.SummarizeBatch(res)
	if sum.MaxShards > 0 && sum.ShardedRuns == 0 {
		t.Fatalf("summary inconsistent: %+v", sum)
	}
	if sum.Components == 0 {
		t.Fatal("summary reports no components; the layer never swept")
	}
}

// TestShardedAlgorithmsListed pins the registry surface: the greedy family
// supports time sharding, the non-decomposing algorithms do not.
func TestShardedAlgorithmsListed(t *testing.T) {
	want := map[string]bool{
		"firstfit": true, "bestfit": true, "firstfit-start": true,
		"nextfit": false, "exact": false,
	}
	for _, a := range busytime.Algorithms() {
		expect, ok := want[a.Name]
		if !ok {
			continue
		}
		if a.Shards != expect {
			t.Errorf("%s: Shards=%v, want %v", a.Name, a.Shards, expect)
		}
		if a.Shards && !a.Decomposes {
			t.Errorf("%s: sharding without a decomposer", a.Name)
		}
	}
}
