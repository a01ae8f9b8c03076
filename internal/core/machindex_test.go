package core

import (
	"testing"

	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// TestFirstTrivialFindsLowestGuaranteedMachine drives the segment tree
// directly: the reported machine must actually satisfy one of the trivial
// acceptance conditions, and no lower-indexed machine may satisfy any.
func TestFirstTrivialFindsLowestGuaranteedMachine(t *testing.T) {
	in := denseTestInstance(200, 3, 100, 10)
	ix := new(machindex)
	ix.reset(in.timeAxis())
	type mstate struct {
		hull interval.Interval
		peak int
		open bool
	}
	var ms []mstate
	state := uint64(99)
	next := func(n int) int {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		return int(z % uint64(n))
	}
	for step := 0; step < 400; step++ {
		switch {
		case len(ms) == 0 || next(5) == 0:
			ix.addMachine()
			ms = append(ms, mstate{open: true})
		default:
			m := next(len(ms))
			s := float64(next(100))
			hull := interval.Interval{Start: s, End: s + float64(next(20))}
			peak := next(4)
			ix.update(m, hull, peak)
			ms[m] = mstate{hull: hull, peak: peak, open: false}
		}
		ws := float64(next(110)) - 5
		w := interval.Interval{Start: ws, End: ws + float64(next(15))}
		d := 1 + next(3)
		slack := int32(in.G - d)
		got := ix.firstTrivial(w, slack)
		want := -1
		for m, st := range ms {
			trivial := st.open || // empty machine: peak 0 ≤ slack
				st.hull.End < w.Start || st.hull.Start > w.End ||
				st.peak <= int(slack)
			if trivial {
				want = m
				break
			}
		}
		if got != want {
			t.Fatalf("step %d: firstTrivial=%d, brute force=%d (w=%v slack=%d)", step, got, want, w, slack)
		}
	}
}

// TestShardGeometryCoversJobs pins the bucket→shard mapping every indexed
// machine relies on: a job's shard range covers its window, and every shard
// in the range genuinely touches the window, so sharded sweeps see exactly
// the jobs that can contribute load.
func TestShardGeometryCoversJobs(t *testing.T) {
	for _, n := range []int{5, 60, 600, 6000} {
		in := denseTestInstance(n, 3, float64(n), 12)
		ia := in.timeAxis()
		if ia.nb == 0 {
			t.Fatalf("n=%d: degenerate axis", n)
		}
		if ia.nshards != (ia.nb-1)>>ia.shardShift+1 {
			t.Fatalf("n=%d: nshards %d inconsistent with nb %d >> %d", n, ia.nshards, ia.nb, ia.shardShift)
		}
		extra := 0
		for _, job := range in.Jobs {
			lo, hi := ia.ax.OverlapRange(job.Iv)
			if lo > hi {
				t.Fatalf("n=%d: job %v got empty bucket range", n, job.Iv)
			}
			slo, shi := ia.shardRange(lo, hi)
			extra += shi - slo
			if ia.shardStart(slo) > job.Iv.Start || ia.shardEnd(shi) < job.Iv.End {
				t.Fatalf("n=%d: job %v not covered by shards [%d,%d] = [%v,%v]",
					n, job.Iv, slo, shi, ia.shardStart(slo), ia.shardEnd(shi))
			}
			for k := slo; k <= shi; k++ {
				tile := interval.Interval{Start: ia.shardStart(k), End: ia.shardEnd(k)}
				if !tile.Overlaps(job.Iv) {
					t.Fatalf("n=%d: job %v spans disjoint shard %d %v", n, job.Iv, k, tile)
				}
			}
		}
		if extra > in.N() {
			t.Fatalf("n=%d: %d extra shard copies for %d jobs; duplication bound violated", n, extra, in.N())
		}
	}
}

// TestMachindexWordGrowth exercises column growth past 64 machines: a new
// machine word appends a cleared column and leaves earlier bits in place,
// and a recycled index re-grows inside its retained arrays without stale
// bits from the previous round.
func TestMachindexWordGrowth(t *testing.T) {
	in := denseTestInstance(64, 2, 64, 4)
	ix := new(machindex)
	for round := 0; round < 2; round++ {
		// Round 1 re-runs on the warm index with a shifted pattern: the
		// columns must then be re-cleared in place, without fresh arrays.
		ix.reset(in.timeAxis())
		if ix.nb == 0 {
			t.Skip("degenerate axis")
		}
		allocsBefore := ix.allocs
		for m := 0; m < 130; m++ {
			ix.addMachine()
			b := (m + round) % ix.nb
			ix.markRun(m, b, b)
		}
		for m := 0; m < 130; m++ {
			for b := 0; b < ix.nb; b++ {
				want := b == (m+round)%ix.nb
				if got := ix.mask[(m/64)*ix.nb+b]&(1<<(m%64)) != 0; got != want {
					t.Fatalf("round %d: machine %d bucket %d bit %v, want %v", round, m, b, got, want)
				}
				if got := ix.blockedWord(m/64, b, b)&(1<<(m%64)) != 0; got != want {
					t.Fatalf("round %d: blockedWord machine %d bucket %d = %v, want %v", round, m, b, got, want)
				}
			}
		}
		if round == 1 && ix.allocs != allocsBefore {
			t.Fatalf("warm re-run allocated %d backing arrays; want 0", ix.allocs-allocsBefore)
		}
	}
}

// bitmapMark is one saturated run [lo, hi] of machine m recorded in a test
// index.
type bitmapMark struct{ m, lo, hi int }

// markedIndex resets an index on a synthetic nb-bucket axis (reset reads
// only nb), opens cols columns of machines and marks n random runs, a third
// of them single buckets, returning the index and the marks.
func markedIndex(nb, cols, n int, seed int64) (*machindex, []bitmapMark) {
	ix := new(machindex)
	ix.reset(&instanceAxis{nb: nb})
	for m := 0; m < 64*cols; m++ {
		ix.addMachine()
	}
	r := xrand.New(seed)
	marks := make([]bitmapMark, n)
	for i := range marks {
		mk := bitmapMark{m: r.Intn(64 * cols), lo: r.Intn(nb)}
		mk.hi = mk.lo
		if i%3 != 0 {
			mk.hi = min(nb-1, mk.lo+r.Intn(80))
		}
		ix.markRun(mk.m, mk.lo, mk.hi)
		marks[i] = mk
	}
	return ix, marks
}

// bruteBlocked recomputes blockedWord(w, lo, hi) from the list of marks.
func bruteBlocked(marks []bitmapMark, w, lo, hi int) uint64 {
	var acc uint64
	for _, mk := range marks {
		if mk.m/64 == w && max(lo, mk.lo) <= min(hi, mk.hi) {
			acc |= 1 << (mk.m % 64)
		}
	}
	return acc
}

// TestBlockedWordMatchesBrute checks blockedWord against the marks it was
// built from on windows of every length, starting and ending on and inside
// 32-bucket group edges and at both ends of the axis. Column 3 is past the
// open columns and must read 0.
func TestBlockedWordMatchesBrute(t *testing.T) {
	const nb = 2500
	ix, marks := markedIndex(nb, 3, 60, 7)
	starts := []int{0, 1, 31, 32, 33, 63, 64, 1000}
	ends := []int{31, 32, 63, 64, 1023, 1024, 32*77 - 1, nb - 1}
	for n := 0; n <= nb; n++ {
		los := append([]int(nil), starts...)
		for _, e := range ends {
			los = append(los, e-n+1)
		}
		for _, lo := range los {
			hi := lo + n - 1
			if lo < 0 || hi >= nb {
				continue
			}
			for w := 0; w <= 3; w++ {
				if got, want := ix.blockedWord(w, lo, hi), bruteBlocked(marks, w, lo, hi); got != want {
					t.Fatalf("blockedWord(%d, %d, %d) = %#x, brute force %#x", w, lo, hi, got, want)
				}
			}
		}
	}
}

// FuzzBlockedWord is the fuzzed form of TestBlockedWordMatchesBrute: a
// fuzzed axis width, mark pattern and window, plus 64 windows drawn from the
// seed.
func FuzzBlockedWord(f *testing.F) {
	f.Add(uint16(2500), int64(7), uint16(33), uint16(1100))
	f.Add(uint16(32), int64(1), uint16(0), uint16(32))
	f.Add(uint16(95), int64(3), uint16(31), uint16(64))
	f.Fuzz(func(t *testing.T, nb16 uint16, seed int64, lo16, n16 uint16) {
		nb := 1 + int(nb16)%4096
		ix, marks := markedIndex(nb, 2, 1+int(nb16)%50, seed)
		r := xrand.New(seed)
		lo := int(lo16) % nb
		hi := lo + int(n16)%(nb-lo+1) - 1
		for i := 0; i <= 64; i++ {
			for w := 0; w <= 2; w++ {
				if got, want := ix.blockedWord(w, lo, hi), bruteBlocked(marks, w, lo, hi); got != want {
					t.Fatalf("nb %d: blockedWord(%d, %d, %d) = %#x, brute force %#x", nb, w, lo, hi, got, want)
				}
			}
			lo = r.Intn(nb)
			hi = lo + r.Intn(nb-lo+1) - 1
		}
	})
}

// TestBitmapBudget pins the byte budget on the widest axis: 600 machines on
// 2¹⁶ buckets get 512 machines of raw columns within maxBitmapBytes, a mark
// past the budget is dropped and its column reads 0, and a warm re-run
// allocates nothing.
func TestBitmapBudget(t *testing.T) {
	ia := &instanceAxis{nb: 1 << 16}
	ix := new(machindex)
	for round := 0; round < 2; round++ {
		ix.reset(ia)
		allocsBefore := ix.allocs
		for m := 0; m < 600; m++ {
			ix.addMachine()
		}
		if bytes := 8 * cap(ix.mask); bytes > maxBitmapBytes {
			t.Fatalf("raw columns take %d bytes; budget %d", bytes, maxBitmapBytes)
		}
		if covered := 64 * ix.words; covered != 512 {
			t.Fatalf("bitmap covers %d machines at 2¹⁶ buckets; want 512", covered)
		}
		ix.markRun(511, 0, ia.nb-1)
		ix.markRun(599, 0, ia.nb-1)
		if got := ix.blockedWord(511/64, 0, ia.nb-1); got != 1<<63 {
			t.Fatalf("covered machine 511: blockedWord = %#x, want bit 63", got)
		}
		if got := ix.blockedWord(599/64, 0, ia.nb-1); got != 0 {
			t.Fatalf("machine 599 past the budget: blockedWord = %#x, want 0", got)
		}
		if round == 1 && ix.allocs != allocsBefore {
			t.Fatalf("warm re-run allocated %d backing arrays; want 0", ix.allocs-allocsBefore)
		}
	}
}

// shardHarness wires a loadShards directory to a pool and an axis the way a
// schedule does, for driving the oracle directly in tests.
type shardHarness struct {
	ia   *instanceAxis
	pool shardPool
	ls   loadShards
}

func newShardHarness(in *Instance) *shardHarness {
	h := &shardHarness{ia: in.timeAxis()}
	h.ls.init(h.ia)
	return h
}

func (h *shardHarness) add(iv interval.Interval, demand int) {
	lo, hi := h.ia.ax.OverlapRange(iv)
	slo, shi := h.ia.shardRange(lo, hi)
	h.ls.add(&h.pool, iv, demand, slo, shi)
}

func (h *shardHarness) maxDepthRun(w interval.Interval, thresh int) (int, float64, interval.Interval, bool) {
	lo, hi := h.ia.ax.OverlapRange(w)
	slo, shi := h.ia.shardRange(lo, hi)
	return h.ls.maxDepthRun(&h.pool, h.ia, w, thresh, slo, shi)
}

// shardOracleCase is one seeded workload for checkShardsAgainstBrute.
type shardOracleCase struct {
	seed            uint64
	n               int
	horizon, maxLen float64
	maxDemand       int
	thresholds      []int
}

// TestLoadShardsMatchesBrute compares the sharded capacity oracle against a
// brute-force depth computation on demand-weighted jobs at threshold 3. The
// insertion count runs far past the old doubling-growth threshold
// (shardJobTarget items per shard) to pin the regression the up-front sizing
// replaced: the fixed directory must stay exact at any occupancy, with no
// redistribution path left to get wrong.
func TestLoadShardsMatchesBrute(t *testing.T) {
	tc := shardOracleCase{seed: 3, n: 1200, horizon: 100, maxLen: 12, maxDemand: 3, thresholds: []int{3}}
	if old := shardJobTarget; tc.n <= old {
		t.Fatalf("workload %d does not exceed the old growth threshold %d", tc.n, old)
	}
	checkShardsAgainstBrute(t, tc)
}

// TestLoadShardsMatchesTreeOracle checks the sharded capacity oracle on
// unit-demand content at thresholds 2 and 4. It once compared the shards with
// the per-machine interval tree; with the tree gone, the references are the
// brute-force depth and, for unit demands, the endpoint sweep of
// interval.Set.MaxDepthWithin, both independent of the shard code.
func TestLoadShardsMatchesTreeOracle(t *testing.T) {
	checkShardsAgainstBrute(t, shardOracleCase{seed: 21, n: 800, horizon: 60, maxLen: 9, maxDemand: 1, thresholds: []int{2, 4}})
}

// checkShardsAgainstBrute inserts tc's jobs one at a time and, after each,
// checks a random window's depth, witness and saturated run against brute
// force at every threshold of tc.
func checkShardsAgainstBrute(t *testing.T, tc shardOracleCase) {
	t.Helper()
	state := tc.seed
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	type wjob struct {
		iv interval.Interval
		d  int
	}
	// Pre-generate the workload so the instance axis exists up front, the
	// way a schedule sees a complete instance.
	jobs := make([]wjob, tc.n)
	ivs := make([]interval.Interval, len(jobs))
	for i := range jobs {
		s := next() * tc.horizon
		iv := interval.Interval{Start: s, End: s + next()*tc.maxLen}
		jobs[i] = wjob{iv, 1 + int(next()*float64(tc.maxDemand))}
		ivs[i] = iv
	}
	h := newShardHarness(NewInstance(4, ivs...))
	if h.ia.nshards < 2 {
		t.Fatalf("seed %d: only %d shard(s); multi-shard sweeps untested", tc.seed, h.ia.nshards)
	}
	var added []wjob
	depthAt := func(p float64) int {
		depth := 0
		for _, o := range added {
			if o.iv.Contains(p) {
				depth += o.d
			}
		}
		return depth
	}
	brute := func(w interval.Interval) int {
		// Max closed depth within w: evaluate at every clipped endpoint.
		best := 0
		for _, cand := range added {
			for _, p := range []float64{cand.iv.Start, cand.iv.End, w.Start, w.End} {
				if p >= w.Start && p <= w.End {
					best = max(best, depthAt(p))
				}
			}
		}
		return best
	}
	for step, j := range jobs {
		h.add(j.iv, j.d)
		added = append(added, j)
		qs := next() * tc.horizon
		w := interval.Interval{Start: qs, End: qs + next()*tc.maxLen}
		want := brute(w)
		if tc.maxDemand == 1 {
			if sweep := interval.Set(ivs[:step+1]).MaxDepthWithin(w); sweep != want {
				t.Fatalf("seed %d step %d: brute %d, sweep %d (w=%v)", tc.seed, step, want, sweep, w)
			}
		}
		for _, thresh := range tc.thresholds {
			got, at, run, ok := h.maxDepthRun(w, thresh)
			if got != want {
				t.Fatalf("seed %d step %d: depth %d, brute %d (w=%v, shards=%d)", tc.seed, step, got, want, w, h.ia.nshards)
			}
			if ok != (want >= thresh) {
				t.Fatalf("seed %d step %d: ok=%v with depth %d, thresh %d", tc.seed, step, ok, want, thresh)
			}
			if want > 0 && !w.Contains(at) {
				t.Fatalf("seed %d step %d: witness %v outside %v", tc.seed, step, at, w)
			}
			if !ok {
				continue
			}
			if !w.ContainsInterval(run) {
				t.Fatalf("seed %d step %d: run %v outside %v", tc.seed, step, run, w)
			}
			for i := 0; i <= 8; i++ {
				p := run.Start + (run.End-run.Start)*float64(i)/8
				if depth := depthAt(p); depth < thresh {
					t.Fatalf("seed %d step %d: run %v has depth %d < %d at %v", tc.seed, step, run, depth, thresh, p)
				}
			}
		}
	}
}

// TestBitmapCoversNarrowAxis drives FirstFitAssign and BestFit on a clique
// instance that opens 750 machines, more than the bitmap budget covers on
// the widest axis (512 at 2¹⁶ buckets). Its ~3,000-bucket axis fits every
// machine in the budget, and both indexed scans must match their
// brute-force references machine for machine.
func TestBitmapCoversNarrowAxis(t *testing.T) {
	// 1500 unit jobs through a common point with g=2 → 750 machines.
	ivs := make([]interval.Interval, 1500)
	state := uint64(8)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
	for i := range ivs {
		a, b := next()*5, next()*5
		ivs[i] = interval.New(10-a, 10+b)
	}
	in := NewInstance(2, ivs...)
	indexed, plain := NewSchedule(in), NewSchedule(in)
	best, naive := NewSchedule(in), NewSchedule(in)
	for j := range in.Jobs {
		indexed.FirstFitAssign(j)
		bruteFirstFit(plain, j)
		if got, want := best.BestFit(j), naiveBestFit(naive, j); got != want {
			t.Fatalf("job %d: BestFit chose machine %d, naive %d", j, got, want)
		}
	}
	if indexed.NumMachines() <= 512 {
		t.Fatalf("instance opened only %d machines; coverage past the widest axis's 512 untested", indexed.NumMachines())
	}
	for _, s := range []*Schedule{indexed, best} {
		if covered := 64 * s.index.words; covered < s.NumMachines() {
			t.Fatalf("bitmap covers %d of %d machines", covered, s.NumMachines())
		}
	}
	if indexed.NumMachines() != plain.NumMachines() {
		t.Fatalf("indexed %d machines, plain %d", indexed.NumMachines(), plain.NumMachines())
	}
	for j := range in.Jobs {
		if indexed.MachineOf(j) != plain.MachineOf(j) {
			t.Fatalf("job %d: indexed machine %d, plain %d", j, indexed.MachineOf(j), plain.MachineOf(j))
		}
	}
	if indexed.Cost() != plain.Cost() || best.Cost() != naive.Cost() {
		t.Fatalf("cost: FirstFit %v vs %v, BestFit %v vs %v", indexed.Cost(), plain.Cost(), best.Cost(), naive.Cost())
	}
	for _, s := range []*Schedule{indexed, best} {
		if err := s.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}
