package decomp

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"busytime/internal/algo"
	_ "busytime/internal/algo/baselines"
	"busytime/internal/algo/exact"
	_ "busytime/internal/algo/firstfit"
	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
	_ "busytime/internal/online"
)

// firstFitDecomposer returns a fresh copy of FirstFit's decomposition
// contract (LowestFit in length order), which tests may modify.
func firstFitDecomposer() *algo.Decomposer {
	return algo.GreedyDecomposer((*core.Instance).LengthOrder, core.LowestFit)
}

// newPool builds a scratch pool with the given number of spare arenas.
func newPool(spares int) chan *core.Scratch {
	pool := make(chan *core.Scratch, spares)
	for i := 0; i < spares; i++ {
		pool <- new(core.Scratch)
	}
	return pool
}

// unionFind is the quadratic reference partition: pairwise interval overlap
// (closed semantics: touching intervals connect) folded through union-find.
type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) { u.parent[u.find(a)] = u.find(b) }

// referenceLabels computes the union-find partition of in's interval graph
// normalized like the sweep: components numbered by earliest start.
func referenceLabels(in *core.Instance) []int32 {
	n := in.N()
	u := newUnionFind(n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			ia, ib := in.Jobs[a].Iv, in.Jobs[b].Iv
			if ia.Start <= ib.End && ib.Start <= ia.End {
				u.union(a, b)
			}
		}
	}
	labels := make([]int32, n)
	next := int32(0)
	id := map[int]int32{}
	for _, j := range in.StartOrder() {
		root := u.find(int(j))
		c, ok := id[root]
		if !ok {
			c = next
			next++
			id[root] = c
		}
		labels[j] = c
	}
	return labels
}

// TestSweepMatchesUnionFind pins the O(n) reach sweep against the quadratic
// pairwise-overlap union-find across generator families, including instances
// engineered to have many components.
func TestSweepMatchesUnionFind(t *testing.T) {
	r := NewRunner()
	for seed := int64(0); seed < 6; seed++ {
		instances := []*core.Instance{
			generator.General(seed, 80, 3, 60, 18),
			generator.Clustered(seed, 7, 9, 3, 8, 3),
			generator.Proper(seed, 50, 2, 40, 9),
			generator.CloudBurst(seed, 90, 4, 120, 8, 3, 0.5),
		}
		for fi, in := range instances {
			want := referenceLabels(in)
			ncomp, _ := r.sweep(in)
			wantComps := 0
			for _, c := range want {
				if int(c)+1 > wantComps {
					wantComps = int(c) + 1
				}
			}
			if ncomp != wantComps {
				t.Fatalf("seed=%d family=%d: sweep found %d components, union-find %d", seed, fi, ncomp, wantComps)
			}
			for j := 0; j < in.N(); j++ {
				if r.labels[j] != want[j] {
					t.Fatalf("seed=%d family=%d: job %d in component %d, union-find says %d", seed, fi, j, r.labels[j], want[j])
				}
			}
		}
	}
}

// FuzzSweepMatchesUnionFind fuzzes the reach sweep against union-find on
// byte-derived instances, covering touching endpoints, points, duplicates and
// containment chains that generators rarely emit.
func FuzzSweepMatchesUnionFind(f *testing.F) {
	f.Add([]byte{3, 9, 1, 4, 12, 2, 7, 7, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 2})
	f.Add([]byte{255, 1, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		in := &core.Instance{Name: "fuzz", G: 2}
		for i := 0; i+1 < len(data) && len(in.Jobs) < 64; i += 2 {
			start := float64(data[i] % 32)
			in.Jobs = append(in.Jobs, core.Job{
				ID:     len(in.Jobs),
				Iv:     interval.New(start, start+float64(data[i+1]%8)),
				Demand: 1,
			})
		}
		if len(in.Jobs) == 0 {
			return
		}
		r := NewRunner()
		want := referenceLabels(in)
		r.sweep(in)
		for j := range in.Jobs {
			if r.labels[j] != want[j] {
				t.Fatalf("job %d: sweep component %d, union-find %d", j, r.labels[j], want[j])
			}
		}
	})
}

// TestRunMatchesSequential pins the whole decompose–solve–merge path against
// the plain sequential run for the greedy identity-merge family, bitwise.
// Six clusters make one chunk per component; 300 clusters on four workers
// (at most 64 chunks) make chunks of several components, so the chunk runs
// place their components one after another.
func TestRunMatchesSequential(t *testing.T) {
	names := []string{"firstfit", "bestfit", "firstfit-start", "online-firstfit"}
	for _, clusters := range []int{6, 300} {
		t.Run(fmt.Sprintf("clusters=%d", clusters), func(t *testing.T) {
			pool := newPool(3)
			r := NewRunner()
			for seed := int64(0); seed < 4; seed++ {
				in := generator.Clustered(seed, clusters, 20, 3, 10, 4)
				for _, name := range names {
					a, ok := algo.Lookup(name)
					if !ok {
						t.Fatalf("%s not registered", name)
					}
					if a.Decompose == nil {
						t.Fatalf("%s has no Decomposer", name)
					}
					seq, err := a.Run(context.Background(), in, new(core.Scratch))
					if err != nil {
						t.Fatal(err)
					}
					sc := new(core.Scratch)
					got, st, err := r.Solve(context.Background(), in, a.Decompose, sc, pool, 4, 0)
					if err != nil {
						t.Fatalf("%s seed=%d: %v", name, seed, err)
					}
					if got == nil {
						t.Fatalf("%s seed=%d: layer declined on a %d-component instance with spare arenas", name, seed, st.Components)
					}
					if st.Components < 2 || st.Workers < 2 {
						t.Fatalf("%s seed=%d: components=%d workers=%d, want ≥ 2 each", name, seed, st.Components, st.Workers)
					}
					if clusters > 64 && len(st.PerComponent) >= st.Components {
						t.Fatalf("%s seed=%d: %d chunks for %d components, want chunks of several components", name, seed, len(st.PerComponent), st.Components)
					}
					assertSame(t, fmt.Sprintf("%s seed=%d", name, seed), seq, got)
					if err := got.Verify(); err != nil {
						t.Fatalf("%s seed=%d: merged schedule infeasible: %v", name, seed, err)
					}
				}
			}
		})
	}
}

// TestStackedMergeMatchesExact pins the stacked merge against the exact
// solver's own sequential component iteration. Five clusters make one chunk
// per component; 200 clusters on three workers (at most 48 chunks) make
// chunks of several components, whose bases the stacked merge finds through
// each component's chunk.
func TestStackedMergeMatchesExact(t *testing.T) {
	for _, clusters := range []int{5, 200} {
		t.Run(fmt.Sprintf("clusters=%d", clusters), func(t *testing.T) {
			pool := newPool(2)
			r := NewRunner()
			for seed := int64(0); seed < 3; seed++ {
				in := generator.Clustered(seed, clusters, 7, 2, 6, 2)
				seq, err := exact.Solve(in)
				if err != nil {
					t.Fatalf("seed=%d: sequential exact: %v", seed, err)
				}
				sc := new(core.Scratch)
				got, st, runErr := r.Solve(context.Background(), in, exact.New(exact.DefaultMaxJobs).Decompose, sc, pool, 3, 0)
				if runErr != nil {
					t.Fatalf("seed=%d: decomposed exact: %v", seed, runErr)
				}
				if got == nil {
					t.Fatalf("seed=%d: layer declined (components=%d)", seed, st.Components)
				}
				if clusters > 48 && len(st.PerComponent) >= st.Components {
					t.Fatalf("seed=%d: %d chunks for %d components, want chunks of several components", seed, len(st.PerComponent), st.Components)
				}
				assertSame(t, fmt.Sprintf("exact seed=%d", seed), seq, got)
			}
		})
	}
}

// TestChunksBoundSchedules pins the chunk grouping: a decomposed solve of an
// instance with well over a thousand components draws at most
// chunksPerWorker schedules per worker, plus the merged one, across the
// caller's and the leased arenas — not one schedule per component — and
// still matches the sequential run bitwise.
func TestChunksBoundSchedules(t *testing.T) {
	in := generator.Clustered(1, 1500, 6, 3, 9, 6)
	a, ok := algo.Lookup("firstfit")
	if !ok {
		t.Fatal("firstfit not registered")
	}
	seq, err := a.Run(context.Background(), in, new(core.Scratch))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	for w := 2; w <= 4; w++ {
		pool := newPool(w - 1)
		sc := new(core.Scratch)
		arenas := []*core.Scratch{sc}
		for i := 0; i < w-1; i++ {
			spare := <-pool
			arenas = append(arenas, spare)
			pool <- spare
		}
		schedules := func() int {
			total := 0
			for _, ar := range arenas {
				total += ar.Stats().Schedules
			}
			return total
		}
		before := schedules()
		got, st, err := r.Solve(context.Background(), in, a.Decompose, sc, pool, w, 0)
		if err != nil || got == nil {
			t.Fatalf("w=%d: schedule=%v err=%v", w, got, err)
		}
		if st.Components < 1000 || st.Workers != w {
			t.Fatalf("w=%d: components=%d workers=%d, want ≥ 1000 components on %d workers", w, st.Components, st.Workers, w)
		}
		if drawn, limit := schedules()-before, chunksPerWorker*w+1; drawn > limit {
			t.Fatalf("w=%d: decomposed solve drew %d schedules, want ≤ %d", w, drawn, limit)
		}
		if len(st.PerComponent) > chunksPerWorker*w {
			t.Fatalf("w=%d: %d chunks, want ≤ %d", w, len(st.PerComponent), chunksPerWorker*w)
		}
		jobs := 0
		for _, c := range st.PerComponent {
			jobs += c.Jobs
		}
		if jobs != in.N() {
			t.Fatalf("w=%d: chunk sizes sum to %d, want %d", w, jobs, in.N())
		}
		assertSame(t, fmt.Sprintf("w=%d", w), seq, got)
	}
}

// TestChunkOrderIsComponentMajor pins the order a chunk run receives: with
// more components than chunks, every chunk's segment of suborder is a run of
// whole, consecutive components in increasing component id, and each
// component's jobs follow the algorithm's global order — length order for
// FirstFit, position order for exact.
func TestChunkOrderIsComponentMajor(t *testing.T) {
	in := generator.Clustered(1, 200, 6, 3, 9, 6)
	const budget = 4
	labels := referenceLabels(in)
	ncomp := 0
	for _, c := range labels {
		ncomp = max(ncomp, int(c)+1)
	}
	compSize := make([]int, ncomp)
	for _, c := range labels {
		compSize[c]++
	}
	if ncomp <= chunksPerWorker*budget {
		t.Fatalf("%d components, want more than %d chunks", ncomp, chunksPerWorker*budget)
	}
	ff, ok := algo.Lookup("firstfit")
	if !ok {
		t.Fatal("firstfit not registered")
	}
	for _, tc := range []struct {
		name string
		d    *algo.Decomposer
	}{
		{"firstfit", ff.Decompose},
		{"exact", exact.New(exact.DefaultMaxJobs).Decompose},
	} {
		rank := make([]int, in.N()) // job → position in the global order
		for j := range rank {
			rank[j] = j
		}
		if tc.d.Order != nil {
			for p, j := range tc.d.Order(in) {
				rank[j] = p
			}
		}
		r := NewRunner()
		got, st, err := r.Solve(context.Background(), in, tc.d, new(core.Scratch), newPool(budget-1), budget, 0)
		if err != nil || got == nil {
			t.Fatalf("%s: schedule=%v err=%v", tc.name, got, err)
		}
		if len(st.PerComponent) >= ncomp {
			t.Fatalf("%s: %d chunks for %d components, want chunks of several components", tc.name, len(st.PerComponent), ncomp)
		}
		lo, next := 0, 0 // next: the component the next segment must start with
		for u, c := range st.PerComponent {
			seg := r.suborder[lo : lo+c.Jobs]
			lo += c.Jobs
			for i := 0; i < len(seg); next++ {
				if c := int(labels[seg[i]]); c != next {
					t.Fatalf("%s chunk %d: position %d holds component %d, want component %d to start there", tc.name, u, i, c, next)
				}
				end := i + compSize[next]
				if end > len(seg) {
					t.Fatalf("%s chunk %d: component %d is cut by the chunk's end", tc.name, u, next)
				}
				for p := i + 1; p < end; p++ {
					if int(labels[seg[p]]) != next {
						t.Fatalf("%s chunk %d: component %d's jobs are not contiguous", tc.name, u, next)
					}
					if rank[seg[p]] < rank[seg[p-1]] {
						t.Fatalf("%s chunk %d: component %d places job %d before job %d against the global order", tc.name, u, next, seg[p-1], seg[p])
					}
				}
				i = end
			}
		}
		if next != ncomp || lo != in.N() {
			t.Fatalf("%s: chunks cover %d components and %d jobs, want %d and %d", tc.name, next, lo, ncomp, in.N())
		}
	}
}

// TestRunDeclines pins the decline contract: nil schedule, nil error, and a
// caller that can always fall back to the sequential path.
func TestRunDeclines(t *testing.T) {
	r := NewRunner()
	d := firstFitDecomposer()
	ctx := context.Background()
	multi := generator.Clustered(1, 4, 10, 2, 8, 3)

	if s, _, err := r.Solve(ctx, &core.Instance{Name: "empty", G: 2}, d, new(core.Scratch), newPool(2), 4, 0); s != nil || err != nil {
		t.Fatalf("empty instance: got schedule=%v err=%v, want decline", s, err)
	}
	if s, _, err := r.Solve(ctx, multi, d, new(core.Scratch), newPool(2), 1, 0); s != nil || err != nil {
		t.Fatalf("budget 1: got schedule=%v err=%v, want decline", s, err)
	}
	single := &core.Instance{Name: "chain", G: 2} // one overlapping chain: one component
	for i := 0; i < 20; i++ {
		single.Jobs = append(single.Jobs, core.Job{ID: i, Iv: interval.New(float64(i), float64(i)+1.5), Demand: 1})
	}
	if s, st, err := r.Solve(ctx, single, d, new(core.Scratch), newPool(2), 4, 0); s != nil || err != nil {
		t.Fatalf("single component: got schedule=%v err=%v, want decline", s, err)
	} else if st.Components != 1 {
		t.Fatalf("single component: sweep reported %d components", st.Components)
	}
	if s, st, err := r.Solve(ctx, multi, d, new(core.Scratch), newPool(0), 4, 0); s != nil || err != nil {
		t.Fatalf("empty pool: got schedule=%v err=%v, want decline", s, err)
	} else if st.Components < 2 {
		t.Fatalf("empty pool: expected a multi-component instance, sweep saw %d", st.Components)
	}
}

// TestRunPoolRestored pins the lease contract: every spare arena goes back to
// the pool whether the run merges, declines or errors.
func TestRunPoolRestored(t *testing.T) {
	pool := newPool(3)
	r := NewRunner()
	in := generator.Clustered(3, 5, 12, 3, 9, 4)
	for i := 0; i < 4; i++ {
		if _, _, err := r.Solve(context.Background(), in, firstFitDecomposer(), new(core.Scratch), pool, 4, 0); err != nil {
			t.Fatal(err)
		}
		if len(pool) != 3 {
			t.Fatalf("round %d: pool holds %d arenas, want 3", i, len(pool))
		}
	}
}

// TestErrorSelection pins deterministic error reporting: the lowest
// (earliest-starting) failing chunk wins regardless of solve order, and
// panics inside a chunk are converted to errors.
func TestErrorSelection(t *testing.T) {
	in := generator.Clustered(4, 6, 8, 2, 6, 2)
	sentinel := errors.New("component rejected")
	d := &algo.Decomposer{
		RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			return sentinel // every chunk fails; chunk 0 must win
		},
	}
	r := NewRunner()
	s, _, err := r.Solve(context.Background(), in, d, new(core.Scratch), newPool(2), 3, 0)
	if s != nil || !errors.Is(err, sentinel) {
		t.Fatalf("got schedule=%v err=%v, want wrapped sentinel", s, err)
	}

	dPanic := &algo.Decomposer{
		RunComponent: func(ctx context.Context, in *core.Instance, order []int32, sc *core.Scratch) error {
			panic("component blew up")
		},
	}
	s, _, err = r.Solve(context.Background(), in, dPanic, new(core.Scratch), newPool(2), 3, 0)
	if s != nil || err == nil {
		t.Fatalf("got schedule=%v err=%v, want converted panic", s, err)
	}
	want := "decomp: chunk 0: component blew up"
	if err.Error() != want {
		t.Fatalf("error %q, want %q (lowest chunk id)", err, want)
	}
}

// TestFailedRunLeavesNoArmedLog pins the disarm after every unit run: exact
// rejects an oversized component before drawing a schedule, so the span log
// armed for that chunk is never picked up, and the arena's next, unrelated
// schedule must not log into the runner's buffer.
func TestFailedRunLeavesNoArmedLog(t *testing.T) {
	in := generator.Clustered(3, 4, 10, 2, 8, 3)
	pool := newPool(2)
	sc := new(core.Scratch)
	r := NewRunner()
	if s, _, err := r.Solve(context.Background(), in, exact.New(2).Decompose, sc, pool, 3, 0); s != nil || err == nil {
		t.Fatalf("got schedule=%v err=%v, want the component limit error", s, err)
	}
	arenas := []*core.Scratch{sc, <-pool, <-pool}
	for i, a := range arenas {
		s := a.NewSchedule(in)
		s.ApplyOrder(core.LowestFit, []int32{0})
		if log := s.EndSpanLog(); log != nil {
			t.Fatalf("arena %d: a fresh schedule logged %d span deltas into a stale buffer", i, len(log))
		}
	}
}

// TestWarmRunnerArenaSteadyState is the decomposition layer's alloc gate:
// once the runner and every arena have served the instance shape, repeated
// decomposed runs perform zero arena setup allocations on the caller's and
// every leased worker's scratch. Six clusters make one chunk per component;
// 300 clusters on four workers make chunks of several components, and the
// runner's per-component buffers must stay warm too.
func TestWarmRunnerArenaSteadyState(t *testing.T) {
	for _, clusters := range []int{6, 300} {
		t.Run(fmt.Sprintf("clusters=%d", clusters), func(t *testing.T) {
			in := generator.Clustered(5, clusters, 25, 3, 10, 4)
			d, ok := algo.Lookup("bestfit")
			if !ok || d.Decompose == nil {
				t.Fatal("bestfit decomposer missing")
			}
			pool := newPool(3)
			sc := new(core.Scratch)
			r := NewRunner()
			run := func() {
				s, st, err := r.Solve(context.Background(), in, d.Decompose, sc, pool, 4, 0)
				if err != nil || s == nil {
					t.Fatalf("decomposed run failed: schedule=%v err=%v components=%d", s, err, st.Components)
				}
				if clusters > 64 && len(st.PerComponent) >= st.Components {
					t.Fatalf("%d chunks for %d components, want chunks of several components", len(st.PerComponent), st.Components)
				}
			}
			run() // cold: runner buffers grow
			// Component→arena pairing is racy under real parallelism, so warming by
			// repetition alone cannot guarantee a given arena has seen the largest
			// component. Instead warm every arena on the full instance shape, which
			// dominates every component's job count and machine count.
			arenas := []*core.Scratch{sc}
			for i := 0; i < 3; i++ {
				a := <-pool
				arenas = append(arenas, a)
				pool <- a
			}
			order := make([]int32, in.N())
			for i := range order {
				order[i] = int32(i)
			}
			for _, a := range arenas {
				if err := d.Decompose.RunComponent(context.Background(), in, order, a); err != nil {
					t.Fatalf("warming arena: %v", err)
				}
			}
			run() // warm the runner's merge path on the now-sized caller arena
			before := make([]int, len(arenas))
			for i, a := range arenas {
				before[i] = a.Stats().SetupAllocs
			}
			for i := 0; i < 5; i++ {
				run()
			}
			for i, a := range arenas {
				if got := a.Stats().SetupAllocs - before[i]; got != 0 {
					t.Errorf("arena %d performed %d setup allocations across 5 warm decomposed runs; want 0", i, got)
				}
			}
			// The Go-heap side of the same gate: with resident workers and recycled
			// stitch buffers a warm decomposed run performs (almost) no allocations
			// at all — the budget of 2 tolerates runtime jitter (stack growth,
			// timer churn), not a regression back to per-run spawning.
			if got := testing.AllocsPerRun(20, run); got > 2 {
				t.Errorf("warm decomposed run allocates %v objects/op; want ≤ 2", got)
			}
		})
	}
}

// assertSame fails unless the two schedules are byte-identical (machine
// count, assignment, per-machine slot order, bitwise cost).
func assertSame(t *testing.T, label string, a, b *core.Schedule) {
	t.Helper()
	if a.NumMachines() != b.NumMachines() {
		t.Fatalf("%s: %d machines vs %d", label, a.NumMachines(), b.NumMachines())
	}
	for j := 0; j < a.Instance().N(); j++ {
		if a.MachineOf(j) != b.MachineOf(j) {
			t.Fatalf("%s: job %d on machine %d vs %d", label, j, a.MachineOf(j), b.MachineOf(j))
		}
	}
	for m := 0; m < a.NumMachines(); m++ {
		ja, jb := a.MachineJobs(m), b.MachineJobs(m)
		if len(ja) != len(jb) {
			t.Fatalf("%s: machine %d holds %d vs %d jobs", label, m, len(ja), len(jb))
		}
		for i := range ja {
			if ja[i] != jb[i] {
				t.Fatalf("%s: machine %d slot %d: job %d vs %d", label, m, i, ja[i], jb[i])
			}
		}
	}
	if a.Cost() != b.Cost() {
		t.Fatalf("%s: cost %v vs %v", label, a.Cost(), b.Cost())
	}
}

// The sweep alone: component labeling over the cached start order, the O(n)
// prefix of every decomposed run. The warm-up call before the timed loop
// sizes the runner's label buffer, so the steady-state figure is 0 B/op —
// the recycled-buffer contract of the layer, not an amortized average.
func BenchmarkDecompSweep100k(b *testing.B) {
	in := generator.Clustered(7, 16, 6250, 4, 5000, 40)
	in.CachedValidate()
	r := NewRunner()
	if n, _ := r.sweep(in); n != 16 { // warm: grow labels once
		b.Fatalf("sweep found %d components, want 16", n)
	}
	b.ReportAllocs()
	for b.Loop() {
		if n, _ := r.sweep(in); n != 16 {
			b.Fatalf("sweep found %d components, want 16", n)
		}
	}
}
