package decomp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"busytime/internal/algo"
	"busytime/internal/algo/exact"
	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
)

// shardCostBound is the documented empirical ceiling on sharded cost versus
// the sequential run of the same algorithm: cuts are picked at low-crossing
// boundaries and each shard runs the algorithm's own rule, so across
// TestShardedSolveValidAndBounded's matrix the worst ratio is 1.042
// (CloudBurst, k = 4). Costs are deterministic, so the bound cannot flake.
const shardCostBound = 1.05

// denseInstance is the sharding regime: one giant connected component that
// starves component decomposition. General at this density (n jobs over a
// horizon of n/10 units) has no positive-length gap anywhere.
func denseInstance(seed int64) *core.Instance {
	return generator.General(seed, 2000, 3, 200, 10)
}

// TestShardedSolveValidAndBounded is the differential gate of the sharding
// path: across algorithms (both LowestFit and BestFit rows), seeds,
// generator families and shard counts 2 and 4, a sharded solve must engage,
// produce a Verify-clean schedule, and stay within shardCostBound of the
// sequential cost.
func TestShardedSolveValidAndBounded(t *testing.T) {
	names := []string{"firstfit", "bestfit", "firstfit-start", "online-firstfit"}
	pool := newPool(3)
	r := NewRunner()
	for seed := int64(0); seed < 4; seed++ {
		instances := []*core.Instance{
			denseInstance(seed),
			generator.CloudBurst(seed, 3000, 4, 400, 8, 5, 0.4),
			generator.Clustered(seed, 1, 1500, 3, 150, 6),
		}
		for fi, in := range instances {
			for _, name := range names {
				a, ok := algo.Lookup(name)
				if !ok {
					t.Fatalf("%s not registered", name)
				}
				d := a.Decompose
				if d == nil || !d.Shards {
					t.Fatalf("%s does not declare Shards", name)
				}
				seq, err := a.Run(context.Background(), in, new(core.Scratch))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range []int{2, 4} {
					label := fmt.Sprintf("%s seed=%d family=%d k=%d", name, seed, fi, k)
					got, st, err := r.Solve(context.Background(), in, d, new(core.Scratch), pool, 1, k)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if got == nil || st.Shards < 2 {
						t.Fatalf("%s: sharding did not engage (schedule=%v shards=%d components=%d largest=%d)",
							label, got, st.Shards, st.Components, st.LargestComponent)
					}
					if err := got.Verify(); err != nil {
						t.Fatalf("%s: sharded schedule infeasible: %v", label, err)
					}
					if got.Cost() > seq.Cost()*shardCostBound {
						t.Fatalf("%s: sharded cost %v exceeds sequential %v × %v",
							label, got.Cost(), seq.Cost(), shardCostBound)
					}
					if st.Workers != st.Shards {
						t.Fatalf("%s: workers=%d, want one per shard (%d)", label, st.Workers, st.Shards)
					}
					total := 0
					for _, c := range st.PerComponent {
						total += c.Jobs
					}
					if total != in.N() {
						t.Fatalf("%s: shard sizes %v cover %d jobs, want %d", label, st.PerComponent, total, in.N())
					}
					if st.CrossingJobs*4 > in.N() {
						t.Fatalf("%s: crossing=%d exceeds the n/4 gate (n=%d)", label, st.CrossingJobs, in.N())
					}
				}
			}
		}
	}
}

// TestShardLabelsFollowStarts pins the shard partition on a dense instance:
// every job is labeled with the shard whose time range holds its start,
// Stats.CrossingJobs counts the jobs whose end passes the next cut, and no
// machine of the merged schedule holds jobs of two shards — a crossing job
// stays on its own shard's machines. The cuts are endpoint ranks; the test
// maps them to the times they stand for through its own sorted endpoints
// and checks the float starts and ends against those. The instance gets one
// added job starting on each cut the plain dense instance is given, so
// jobs that start exactly on a cut, which join the shard right of it, are
// checked too.
func TestShardLabelsFollowStarts(t *testing.T) {
	in := withJobsOnCuts(t, denseInstance(6))
	var times []float64
	for _, job := range in.Jobs {
		times = append(times, job.Iv.Start, job.Iv.End)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	for _, name := range []string{"firstfit", "bestfit"} {
		a, ok := algo.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		r := NewRunner()
		s, st, err := r.Solve(context.Background(), in, a.Decompose, new(core.Scratch), newPool(3), 1, 4)
		if err != nil || s == nil || st.Shards < 2 {
			t.Fatalf("%s: schedule=%v err=%v shards=%d, want a sharded run", name, s, err, st.Shards)
		}
		if len(r.cuts) != st.Shards-1 {
			t.Fatalf("%s: %d cuts for %d shards", name, len(r.cuts), st.Shards)
		}
		var cuts []float64
		for _, c := range r.cuts {
			cuts = append(cuts, times[c])
		}
		shardOf := make([]int, in.N())
		crossing, onCut := 0, 0
		for j, job := range in.Jobs {
			k := 0
			for k < len(cuts) && cuts[k] <= job.Iv.Start {
				k++
			}
			if k > 0 && cuts[k-1] == job.Iv.Start {
				onCut++
			}
			shardOf[j] = k
			if got := int(r.slabels[j]); got != k {
				t.Fatalf("%s: job %d %v labeled shard %d, its start lies in shard %d (cuts %v)", name, j, job.Iv, got, k, cuts)
			}
			if k < len(cuts) && job.Iv.End > cuts[k] {
				crossing++
			}
		}
		if crossing == 0 {
			t.Fatalf("%s: no job crosses a cut; the instance does not exercise crossing jobs", name)
		}
		if onCut == 0 {
			t.Fatalf("%s: no job starts on a cut (cuts %v); the instance does not exercise them", name, cuts)
		}
		if st.CrossingJobs != crossing {
			t.Fatalf("%s: Stats.CrossingJobs = %d, %d jobs end past their next cut", name, st.CrossingJobs, crossing)
		}
		for m := range s.NumMachines() {
			jobs := s.MachineJobs(m)
			for _, j := range jobs {
				if shardOf[j] != shardOf[jobs[0]] {
					t.Fatalf("%s: machine %d holds job %d of shard %d and job %d of shard %d", name, m, jobs[0], shardOf[jobs[0]], j, shardOf[j])
				}
			}
		}
	}
}

// withJobsOnCuts returns in plus one unit-length job starting at each cut
// time of a 4-way sharded firstfit solve of in.
func withJobsOnCuts(t *testing.T, in *core.Instance) *core.Instance {
	t.Helper()
	a, ok := algo.Lookup("firstfit")
	if !ok {
		t.Fatal("firstfit not registered")
	}
	r := NewRunner()
	if s, st, err := r.Solve(context.Background(), in, a.Decompose, new(core.Scratch), newPool(3), 1, 4); err != nil || s == nil || st.Shards < 2 {
		t.Fatalf("%s: schedule=%v err=%v shards=%d, want a sharded run", in.Name, s, err, st.Shards)
	}
	var times []float64
	for _, job := range in.Jobs {
		times = append(times, job.Iv.Start, job.Iv.End)
	}
	slices.Sort(times)
	times = slices.Compact(times)
	out := &core.Instance{Name: in.Name + "+oncut", G: in.G, Jobs: slices.Clone(in.Jobs)}
	for _, c := range r.cuts {
		out.Jobs = append(out.Jobs, core.Job{ID: len(out.Jobs), Iv: interval.New(times[c], times[c]+1), Demand: 1})
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestShardedOffIsUnsharded pins shards ≤ 1 to the exact unsharded behavior:
// on a single-component instance the layer declines (nil, nil), identically
// to Run.
func TestShardedOffIsUnsharded(t *testing.T) {
	in := denseInstance(1)
	d := firstFitDecomposer()
	r := NewRunner()
	pool := newPool(3)
	for _, shards := range []int{0, 1} {
		got, st, err := r.Solve(context.Background(), in, d, new(core.Scratch), pool, 4, shards)
		if got != nil || err != nil {
			t.Fatalf("shards=%d: got schedule=%v err=%v, want decline (single component, sharding off)", shards, got, err)
		}
		if st.Shards != 0 {
			t.Fatalf("shards=%d: stats report %d shards on the unsharded path", shards, st.Shards)
		}
		if st.Components != 1 {
			t.Fatalf("shards=%d: dense instance swept into %d components, want 1", shards, st.Components)
		}
	}
}

// TestShardedDeclines pins every fall-back edge of the sharding gate: the
// layer must return (nil, nil) — or take the component path — rather than
// shard when sharding cannot pay or is not declared.
func TestShardedDeclines(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	ff := firstFitDecomposer()

	// Too few jobs: n/minShardJobs < 2 caps the shard count below 2.
	tiny := &core.Instance{Name: "tiny-chain", G: 2}
	for i := 0; i < 2*minShardJobs-2; i++ {
		tiny.Jobs = append(tiny.Jobs, core.Job{ID: i, Iv: interval.New(float64(i), float64(i)+1.5), Demand: 1})
	}
	if s, st, err := r.Solve(ctx, tiny, ff, new(core.Scratch), newPool(3), 1, 4); s != nil || err != nil || st.Shards != 0 {
		t.Fatalf("tiny: got schedule=%v err=%v shards=%d, want decline", s, err, st.Shards)
	}

	// Stacked decomposers (the exact solver) never shard: they do not
	// declare Shards.
	if s, st, err := r.Solve(ctx, tiny, exact.New(exact.DefaultMaxJobs).Decompose, new(core.Scratch), newPool(3), 1, 4); s != nil || err != nil || st.Shards != 0 {
		t.Fatalf("stacked: got schedule=%v err=%v shards=%d, want decline", s, err, st.Shards)
	}

	// Shards not declared: the gate requires Decomposer.Shards.
	noRule := *ff
	noRule.Shards = false
	if s, st, err := r.Solve(ctx, denseInstance(2), &noRule, new(core.Scratch), newPool(3), 1, 4); s != nil || err != nil || st.Shards != 0 {
		t.Fatalf("no rule: got schedule=%v err=%v shards=%d, want decline", s, err, st.Shards)
	}

	// Crossing-heavy: a laminar nest of intervals sharing one core — every
	// candidate cut is crossed by most of the instance, so crossing·4 > n
	// rejects the split.
	nest := &core.Instance{Name: "nest", G: 2}
	for i := 0; i < 100; i++ {
		nest.Jobs = append(nest.Jobs, core.Job{ID: i, Iv: interval.New(0.5*float64(i), 100-0.5*float64(i)), Demand: 1})
	}
	if s, st, err := r.Solve(ctx, nest, ff, new(core.Scratch), newPool(3), 1, 4); s != nil || err != nil || st.Shards != 0 {
		t.Fatalf("crossing-heavy: got schedule=%v err=%v shards=%d, want decline", s, err, st.Shards)
	}

	// Multi-component instance without a dominant component: sharding defers
	// to component parallelism (which here is off via budget 1).
	multi := generator.Clustered(2, 6, 100, 3, 10, 4)
	if s, st, err := r.Solve(ctx, multi, ff, new(core.Scratch), newPool(3), 1, 4); s != nil || err != nil || st.Shards != 0 {
		t.Fatalf("multi-component: got schedule=%v err=%v shards=%d, want decline (components=%d)", s, err, st.Shards, st.Components)
	}
}

// TestShardedSolveIgnoresIdleArenas pins that a sharded solve depends on
// the instance alone, not on which arenas are idle: one single-component
// instance solved with the pool full, with one spare left and with the pool
// drained must cut the same shards and produce the same schedule, and only
// the concurrency (Stats.Workers) may differ.
func TestShardedSolveIgnoresIdleArenas(t *testing.T) {
	ctx := context.Background()
	in := denseInstance(5)
	for _, name := range []string{"firstfit", "bestfit"} {
		a, ok := algo.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		r := NewRunner()
		pool := newPool(3)
		full, fst, err := r.Solve(ctx, in, a.Decompose, new(core.Scratch), pool, 1, 4)
		if err != nil || full == nil || fst.Shards < 2 {
			t.Fatalf("%s, full pool: schedule=%v err=%v shards=%d, want a sharded run", name, full, err, fst.Shards)
		}
		if fst.Workers != fst.Shards {
			t.Fatalf("%s, full pool: %d workers for %d shards", name, fst.Workers, fst.Shards)
		}
		for _, spares := range []int{1, 0} {
			label := fmt.Sprintf("%s, %d spare arenas", name, spares)
			few := newPool(spares)
			got, st, err := r.Solve(ctx, in, a.Decompose, new(core.Scratch), few, 1, 4)
			if err != nil || got == nil {
				t.Fatalf("%s: schedule=%v err=%v, want a sharded run", label, got, err)
			}
			if st.Shards != fst.Shards || st.CrossingJobs != fst.CrossingJobs {
				t.Fatalf("%s: %d shards, %d crossing; the full pool cut %d, %d", label, st.Shards, st.CrossingJobs, fst.Shards, fst.CrossingJobs)
			}
			if st.Workers != 1+spares {
				t.Fatalf("%s: %d workers, want %d", label, st.Workers, 1+spares)
			}
			if len(few) != spares {
				t.Fatalf("%s: pool holds %d arenas after the run", label, len(few))
			}
			assertSame(t, label, full, got)
		}
	}
}

// TestShardedPoolRestored pins the lease contract on the sharding path: every
// spare arena returns to the pool whether the run shards, declines or errors.
func TestShardedPoolRestored(t *testing.T) {
	pool := newPool(3)
	r := NewRunner()
	ctx := context.Background()
	in := denseInstance(3)
	for i := 0; i < 3; i++ {
		s, st, err := r.Solve(ctx, in, firstFitDecomposer(), new(core.Scratch), pool, 1, 4)
		if err != nil || s == nil || st.Shards < 2 {
			t.Fatalf("round %d: sharded run failed: schedule=%v err=%v shards=%d", i, s, err, st.Shards)
		}
		if len(pool) != 3 {
			t.Fatalf("round %d: pool holds %d arenas after success, want 3", i, len(pool))
		}
	}
	boom := &algo.Decomposer{
		RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			panic("shard blew up")
		},
		Shards: true,
	}
	if s, _, err := r.Solve(ctx, in, boom, new(core.Scratch), pool, 1, 4); s != nil || err == nil {
		t.Fatalf("got schedule=%v err=%v, want converted shard panic", s, err)
	}
	if len(pool) != 3 {
		t.Fatalf("pool holds %d arenas after shard error, want 3", len(pool))
	}
}

// TestShardedErrorSelection pins deterministic error reporting on the shard
// path: the lowest (earliest) failing shard wins, panics become errors, and
// the message names the shard.
func TestShardedErrorSelection(t *testing.T) {
	boom := &algo.Decomposer{
		RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			panic("shard blew up")
		},
		Shards: true,
	}
	r := NewRunner()
	s, st, err := r.Solve(context.Background(), denseInstance(4), boom, new(core.Scratch), newPool(3), 1, 4)
	if s != nil || err == nil {
		t.Fatalf("got schedule=%v err=%v, want converted panic", s, err)
	}
	if st.Shards < 2 {
		t.Fatalf("sharding did not engage (shards=%d)", st.Shards)
	}
	want := "decomp: shard 0: shard blew up"
	if err.Error() != want {
		t.Fatalf("error %q, want %q (lowest shard id)", err, want)
	}
}

// TestStitchContractViolation pins the guard on the stitch contract: a
// Decomposer whose RunComponent does not record one span delta per
// placement must fail loudly, not merge garbage.
func TestStitchContractViolation(t *testing.T) {
	lying := &algo.Decomposer{
		RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			_ = sc.NewSchedule(in) // picks up the armed log, then places nothing
			return nil
		},
	}
	in := generator.Clustered(5, 3, 10, 2, 8, 3)
	r := NewRunner()
	s, _, err := r.Solve(context.Background(), in, lying, new(core.Scratch), newPool(2), 3, 0)
	if s != nil || err == nil {
		t.Fatalf("got schedule=%v err=%v, want stitch-contract error", s, err)
	}
	if !strings.Contains(err.Error(), "span log") {
		t.Fatalf("error %q does not name the span-log contract", err)
	}
}

// FuzzShardedSolve fuzzes the sharding path on byte-derived instances:
// whenever the layer shards, the schedule must be feasible; whenever it does
// not (under budget 1), it must decline to nil exactly like the unsharded
// path.
func FuzzShardedSolve(f *testing.F) {
	f.Add([]byte{3, 9, 1, 4, 12, 2, 7, 7, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 1, 128, 64, 32, 16, 8, 4, 2, 1, 200, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		// Derive ~2 jobs per input byte so instances clear the minShardJobs
		// floor; starts drift forward to build one long, dense component with
		// byte-controlled irregularities.
		in := &core.Instance{Name: "fuzz", G: 3}
		n := 4 * minShardJobs
		for i := 0; i < n; i++ {
			b0 := data[(2*i)%len(data)]
			b1 := data[(2*i+1)%len(data)]
			start := float64(i)/2 + float64(b0%16)
			in.Jobs = append(in.Jobs, core.Job{
				ID:     i,
				Iv:     interval.New(start, start+0.5+float64(b1%12)),
				Demand: 1,
			})
		}
		d := firstFitDecomposer()
		r := NewRunner()
		pool := newPool(3)
		seq := firstfit.Schedule(in)
		got, st, err := r.Solve(context.Background(), in, d, new(core.Scratch), pool, 1, 4)
		if err != nil {
			t.Fatalf("sharded solve: %v", err)
		}
		if len(pool) != 3 {
			t.Fatalf("pool holds %d arenas, want 3", len(pool))
		}
		if got == nil {
			if st.Shards != 0 {
				t.Fatalf("declined but stats report %d shards", st.Shards)
			}
			return
		}
		if st.Shards < 2 {
			t.Fatalf("schedule produced without sharding under budget 1 (shards=%d)", st.Shards)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("sharded schedule infeasible: %v", err)
		}
		if got.Cost() > seq.Cost()*2 {
			t.Fatalf("sharded cost %v more than doubles sequential %v", got.Cost(), seq.Cost())
		}
	})
}

// shardPin is one recorded sharded solve: the shard sizes, the crossing
// count and the cost bits of row name solved at k shards.
type shardPin struct {
	input    string
	name     string
	k        int
	sizes    []int32
	crossing int
	cost     uint64
}

// shardPinInputs are the inputs of shardPins, by label: the dense instance
// at seeds 0–3, one CloudBurst input, and a single 40,000-job component
// whose 80,000 distinct endpoints decimate the axis at stride 2.
func shardPinInputs() map[string]*core.Instance {
	inputs := map[string]*core.Instance{
		"burst":   generator.CloudBurst(1, 3000, 4, 400, 8, 5, 0.4),
		"general": generator.General(7, 40000, 4, 4000, 30),
	}
	for seed := int64(0); seed < 4; seed++ {
		inputs[fmt.Sprintf("dense%d", seed)] = denseInstance(seed)
	}
	return inputs
}

// shardPins pins the time-sharded partition: which cuts the layer picks
// shows in the shard sizes and the crossing count, and the schedule each
// shard gets in the cost bits.
var shardPins = []shardPin{
	{"dense0", "firstfit", 2, []int32{1039, 961}, 31, 0x40ada6fe89ad5b23},
	{"dense0", "firstfit", 4, []int32{407, 632, 586, 375}, 112, 0x40adfc4ecd1c78ab},
	{"dense0", "bestfit", 2, []int32{1039, 961}, 31, 0x40ada3b4e82684e3},
	{"dense0", "bestfit", 4, []int32{407, 632, 586, 375}, 112, 0x40ade2b05b04851c},
	{"dense1", "firstfit", 2, []int32{974, 1026}, 31, 0x40adc5652a18a5a8},
	{"dense1", "firstfit", 4, []int32{548, 426, 646, 380}, 108, 0x40ade51ed2928474},
	{"dense1", "bestfit", 2, []int32{974, 1026}, 31, 0x40ada929eed3c4bd},
	{"dense1", "bestfit", 4, []int32{548, 426, 646, 380}, 108, 0x40addbfd49ab68c6},
	{"dense2", "firstfit", 2, []int32{1013, 987}, 27, 0x40ae545d5e12a923},
	{"dense2", "firstfit", 4, []int32{383, 630, 454, 533}, 96, 0x40ae9a902109181f},
	{"dense2", "bestfit", 2, []int32{1013, 987}, 27, 0x40ae2ff61cf37d0f},
	{"dense2", "bestfit", 4, []int32{383, 630, 454, 533}, 96, 0x40ae98f00520141b},
	{"dense3", "firstfit", 2, []int32{992, 1008}, 33, 0x40ae08eb0d21ff3c},
	{"dense3", "firstfit", 4, []int32{432, 560, 546, 462}, 104, 0x40ae6d4bbc10e758},
	{"dense3", "bestfit", 2, []int32{992, 1008}, 33, 0x40adf5909d1f17cc},
	{"dense3", "bestfit", 4, []int32{432, 560, 546, 462}, 104, 0x40ae1f0cc5b2e544},
	{"burst", "firstfit", 2, []int32{1479, 1521}, 41, 0x40baba0b2e29b7a0},
	{"burst", "firstfit", 4, []int32{774, 705, 584, 937}, 106, 0x40bb26fdc43caa61},
	{"burst", "bestfit", 2, []int32{1479, 1521}, 41, 0x40baa32eba78e51c},
	{"burst", "bestfit", 4, []int32{774, 705, 584, 937}, 106, 0x40bafeaf60e72ee0},
	{"general", "firstfit", 2, []int32{16995, 23005}, 111, 0x41044827cdff9951},
	{"general", "firstfit", 4, []int32{11590, 10297, 8515, 9598}, 347, 0x4104530d08276c6e},
	{"general", "bestfit", 2, []int32{16995, 23005}, 111, 0x41044bc603847bac},
	{"general", "bestfit", 4, []int32{11590, 10297, 8515, 9598}, 347, 0x41045650f1fa4fff},
}

// TestShardPartitionPinned solves every shardPins entry and compares its
// shard sizes, crossing count and cost bits with the recorded ones.
func TestShardPartitionPinned(t *testing.T) {
	inputs := shardPinInputs()
	var ends []float64
	for _, job := range inputs["general"].Jobs {
		ends = append(ends, job.Iv.Start, job.Iv.End)
	}
	slices.Sort(ends)
	// The axis caps its buckets at 2^16, so d distinct endpoints decimate at
	// stride 2 when 2^16 < d−1 ≤ 2^17.
	if d := len(slices.Compact(ends)); d-1 <= 1<<16 || d-1 > 2<<16 {
		t.Fatalf("general input: %d distinct endpoints, not a stride-2 axis", d)
	}
	r := NewRunner()
	pool := newPool(3)
	var got []string
	for _, label := range []string{"dense0", "dense1", "dense2", "dense3", "burst", "general"} {
		in := inputs[label]
		for _, name := range []string{"firstfit", "bestfit"} {
			a, ok := algo.Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			for _, k := range []int{2, 4} {
				s, st, err := r.Solve(context.Background(), in, a.Decompose, new(core.Scratch), pool, 1, k)
				if err != nil || s == nil {
					t.Fatalf("%s %s k=%d: schedule=%v err=%v", label, name, k, s, err)
				}
				var sizes []int32
				for _, c := range st.PerComponent {
					sizes = append(sizes, int32(c.Jobs))
				}
				got = append(got, fmt.Sprintf("{%q, %q, %d, %#v, %d, %#x},", label, name, k, sizes, st.CrossingJobs, math.Float64bits(s.Cost())))
			}
		}
	}
	var want []string
	for _, p := range shardPins {
		want = append(want, fmt.Sprintf("{%q, %q, %d, %#v, %d, %#x},", p.input, p.name, p.k, p.sizes, p.crossing, p.cost))
	}
	if !slices.Equal(got, want) {
		t.Errorf("sharded solves left their pins; got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
