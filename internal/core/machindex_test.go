package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// TestShardGeometryCoversJobs pins the bucket→shard mapping every indexed
// machine relies on: a job's shard range covers its span, and every shard
// in the range genuinely touches the span, so sharded sweeps see exactly
// the jobs that can contribute load.
func TestShardGeometryCoversJobs(t *testing.T) {
	for _, n := range []int{5, 60, 600, 6000} {
		in := denseTestInstance(n, 3, float64(n), 12)
		ia := in.TimeAxis()
		if ia.nb == 0 {
			t.Fatalf("n=%d: degenerate axis", n)
		}
		if ia.nshards != (ia.nb-1)>>ia.shardShift+1 {
			t.Fatalf("n=%d: nshards %d inconsistent with nb %d >> %d", n, ia.nshards, ia.nb, ia.shardShift)
		}
		extra := 0
		for j := range in.Jobs {
			w := ia.jobSpan(j)
			lo, hi := ia.buckets(w)
			if lo > hi {
				t.Fatalf("n=%d: job %d span %v got empty bucket range", n, j, w)
			}
			slo, shi := ia.shardRange(lo, hi)
			extra += shi - slo
			if ia.shardStart(slo) > w.start || ia.shardEnd(shi) < w.end {
				t.Fatalf("n=%d: job %d span %v not covered by shards [%d,%d] = [%d,%d]",
					n, j, w, slo, shi, ia.shardStart(slo), ia.shardEnd(shi))
			}
			for k := slo; k <= shi; k++ {
				if tile := (span{ia.shardStart(k), ia.shardEnd(k)}); !tile.overlaps(w) {
					t.Fatalf("n=%d: job %d span %v spans disjoint shard %d %v", n, j, w, k, tile)
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
		ix.reset(in.TimeAxis())
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
// of them single buckets, a sixth up to 400 buckets long (several whole
// 32-bucket groups) and the rest up to 80, returning the index and the
// marks.
func markedIndex(nb, cols, n int, seed int64) (*machindex, []bitmapMark) {
	ix := new(machindex)
	ix.reset(&Axis{nb: nb})
	for m := 0; m < 64*cols; m++ {
		ix.addMachine()
	}
	r := xrand.New(seed)
	marks := make([]bitmapMark, n)
	for i := range marks {
		mk := bitmapMark{m: r.Intn(64 * cols), lo: r.Intn(nb)}
		mk.hi = mk.lo
		switch {
		case i%6 == 5:
			mk.hi = min(nb-1, mk.lo+r.Intn(400))
		case i%3 != 0:
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

// blockedWordSeed is one FuzzBlockedWord input: the axis width nb16+1
// (below 4096), the mark seed and the first window's start and length.
type blockedWordSeed struct {
	nb16      uint16
	seed      int64
	lo16, n16 uint16
}

// window returns the axis width and the first window of a FuzzBlockedWord
// input.
func (c blockedWordSeed) window() (nb, lo, hi int) {
	nb = 1 + int(c.nb16)%4096
	lo = int(c.lo16) % nb
	return nb, lo, lo + int(c.n16)%(nb-lo+1) - 1
}

// blockedWordSeeds is FuzzBlockedWord's seed corpus. The last three
// windows end inside a group some run marked whole, so a machine's bit
// reaches them only through that group's group-full word
// (TestBlockedWordSeedsReachTheirCases): the end of a window spanning whole
// groups on 2,048 buckets, the start of one on 1,000 buckets, which ends in
// the axis's last, partial group, and both ends of a 32-bucket window that
// spans no whole group.
var blockedWordSeeds = []blockedWordSeed{
	{2500, 7, 33, 1100},
	{32, 1, 0, 32},
	{95, 3, 31, 64},
	{2047, 1, 7, 194},
	{999, 1, 695, 301},
	{1499, 108, 481, 32},
}

// FuzzBlockedWord is the fuzzed form of TestBlockedWordMatchesBrute: a
// fuzzed axis width, mark pattern and window, plus 64 windows drawn from the
// seed.
func FuzzBlockedWord(f *testing.F) {
	for _, c := range blockedWordSeeds {
		f.Add(c.nb16, c.seed, c.lo16, c.n16)
	}
	f.Fuzz(func(t *testing.T, nb16 uint16, seed int64, lo16, n16 uint16) {
		nb, lo, hi := blockedWordSeed{nb16, seed, lo16, n16}.window()
		ix, marks := markedIndex(nb, 2, 1+int(nb16)%50, seed)
		r := xrand.New(seed)
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

// TestBlockedWordSeedsReachTheirCases pins what the last three seeds of
// FuzzBlockedWord are there for. A group the first window covers only
// partly is reached when, in some column, a bit of its group-full word is
// set in no raw word of the window and in no other group-full word the
// window reads, so a read that skips that group-full word misses it. The
// first two windows span whole groups and reach a group at one end, the
// second ending in its axis's last, partial group; the third spans no whole
// group and reaches both of its groups.
func TestBlockedWordSeedsReachTheirCases(t *testing.T) {
	for i, c := range blockedWordSeeds[3:] {
		nb, lo, hi := c.window()
		ix, _ := markedIndex(nb, 2, 1+int(c.nb16)%50, c.seed)
		reached := 0
		for _, k := range slices.Compact([]int{lo >> 5, hi >> 5}) {
			if lo <= k<<5 && k<<5+31 <= hi {
				continue
			}
			for w := range 2 {
				only := ix.full[w*ix.ng+k]
				for _, x := range ix.mask[w*ix.nb+lo : w*ix.nb+hi+1] {
					only &^= x
				}
				for j := lo >> 5; j <= hi>>5; j++ {
					if j != k {
						only &^= ix.full[w*ix.ng+j]
					}
				}
				if only != 0 {
					reached++
					break
				}
			}
		}
		whole, lastPartial := (lo+31)>>5 < (hi+1)>>5, nb%32 != 0 && hi>>5 == (nb-1)>>5
		if i < 2 && (!whole || reached == 0) || i == 1 && !lastPartial || i == 2 && (whole || reached != 2) {
			t.Errorf("seed %d: window [%d, %d] on %d buckets reaches %d partly covered groups through their group-full words alone; whole groups %v, ends in a partial last group %v",
				i+3, lo, hi, nb, reached, whole, lastPartial)
		}
	}
}

// TestBitmapBudget pins the byte budget on the widest axis: 600 machines on
// 2¹⁶ buckets get 512 machines of raw columns within maxBitmapBytes, the
// group-full and summary levels take 2/32 of it on top, a mark past the
// budget is dropped and its column reads 0, and a warm re-run allocates
// nothing.
func TestBitmapBudget(t *testing.T) {
	ia := &Axis{nb: 1 << 16}
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
		if bytes := 8 * (cap(ix.full) + cap(ix.sum)); bytes > 2*maxBitmapBytes/32 {
			t.Fatalf("group-full and summary words take %d bytes; want at most 2/32 of the budget, %d", bytes, 2*maxBitmapBytes/32)
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

// shardHarness wires a loadShards directory to a pool and an instance axis
// the way a schedule does, for driving the oracle directly in tests: jobs
// are inserted and windows queried by job index, and witnesses are mapped
// back to times. A query leaves its runs in pool.runs.
type shardHarness struct {
	in    *Instance
	ia    *Axis
	times []float64 // times[r] is the endpoint of rank r
	pool  shardPool
	ls    loadShards
}

// newShardHarness builds a harness for in on its axis decimated to at most
// maxBuckets buckets.
func newShardHarness(in *Instance, maxBuckets int) *shardHarness {
	h := &shardHarness{in: in, ia: buildInstanceAxis(in, maxBuckets), times: rankTimes(in)}
	h.ls.init(h.ia)
	return h
}

// rankTimes returns in's distinct job endpoints in ascending order, so entry
// r is the endpoint of rank r; it is built independently of the axis.
func rankTimes(in *Instance) []float64 {
	ts := make([]float64, 0, 2*in.N())
	for _, j := range in.Jobs {
		ts = append(ts, j.Iv.Start, j.Iv.End)
	}
	slices.Sort(ts)
	return slices.Compact(ts)
}

// add inserts job j.
func (h *shardHarness) add(j int) {
	w := h.ia.jobSpan(j)
	slo, shi := h.ia.shardRange(h.ia.buckets(w))
	h.ls.add(&h.pool, w, h.in.Jobs[j].Demand, slo, shi)
}

// maxDepthRun queries the oracle on job j's window; the runs stay in
// h.pool.runs.
func (h *shardHarness) maxDepthRun(j int) (depth int, at float64) {
	w := h.ia.jobSpan(j)
	slo, shi := h.ia.shardRange(h.ia.buckets(w))
	depth, a := h.ls.maxDepthRun(&h.pool, h.ia, w, slo, shi)
	return depth, h.times[a]
}

// subWindows returns the sub-windows the oracle sweeps for the window w:
// per shard of w's shard range, w clipped to the shard's tile, when that
// leaves a point.
func subWindows(ia *Axis, w span) []span {
	slo, shi := ia.shardRange(ia.buckets(w))
	var subs []span
	for k := slo; k <= shi; k++ {
		sub := w
		if k > slo {
			sub.start = max(sub.start, ia.shardStart(k))
		}
		if k < shi {
			sub.end = min(sub.end, ia.shardEnd(k))
		}
		if sub.start <= sub.end {
			subs = append(subs, sub)
		}
	}
	return subs
}

// shardOracleCase is one seeded workload for checkShardsAgainstBrute: n
// jobs inserted in start order, so the shard chains advance in time as a
// component-major run's do, and extra jobs present in the instance (and on
// its axis) but never inserted, on an axis of at most buckets buckets.
type shardOracleCase struct {
	seed            uint64
	n, extra        int
	horizon, maxLen float64
	maxDemand       int
	// snap, when positive, rounds endpoints to multiples of 1/snap.
	snap int
	// buckets is the axis's bucket cap (buildInstanceAxis).
	buckets int
}

// shardOracleSeeds is FuzzLoadShardsMatchesBrute's seed corpus: a workload
// whose insertion count runs far past shardJobTarget items per shard (the
// fixed directory must stay exact at any occupancy), a unit-demand workload
// also checked against the endpoint sweep of interval.Set.MaxDepthWithin,
// and a workload whose 4,000 endpoints pass its 2,048-bucket cap, so its
// axis is decimated to stride 2 and most inserted endpoints are not axis
// boundaries.
var shardOracleSeeds = []shardOracleCase{
	{seed: 3, n: 1200, horizon: 100, maxLen: 12, maxDemand: 3, buckets: maxTimeBuckets},
	{seed: 21, n: 800, horizon: 60, maxLen: 9, maxDemand: 1, buckets: maxTimeBuckets},
	{seed: 5, n: 400, extra: 1600, horizon: 100, maxLen: 12, maxDemand: 3, buckets: 2048},
}

// FuzzLoadShardsMatchesBrute compares the sharded capacity oracle against a
// brute-force depth computation on demand-weighted jobs (see
// checkShardsAgainstBrute and shardOracleSeeds). The bucket cap is fuzzed
// too, so a few hundred jobs reach a decimated axis; the never-inserted
// jobs stop at 4,000.
func FuzzLoadShardsMatchesBrute(f *testing.F) {
	for _, tc := range shardOracleSeeds {
		f.Add(tc.seed, uint16(tc.n), uint32(tc.extra), uint16(tc.horizon), uint8(tc.maxLen), uint8(tc.maxDemand), uint8(tc.snap), uint16(tc.buckets-1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, extra uint32, horizon uint16, maxLen, maxDemand, snap uint8, buckets uint16) {
		checkShardsAgainstBrute(t, shardOracleCase{
			seed:      seed,
			n:         max(1, int(n)%1201),
			extra:     int(extra % 4001),
			horizon:   float64(max(1, horizon%1001)),
			maxLen:    float64(maxLen % 64),
			maxDemand: max(1, int(maxDemand)%5),
			snap:      int(snap % 8),
			buckets:   1 + int(buckets),
		})
	})
}

// TestShardOracleSeedsReachTheirCases pins what each seed of
// FuzzLoadShardsMatchesBrute is there for: several shards on every axis,
// more than shardJobTarget inserted jobs in the first, shard sweeps both
// within and past smallSweep events there, so both branches of sortEvents
// run, and sweeps the chain reach stops early as well as sweeps it lets
// walk the whole chain; unit demands in the second, and in the third an
// axis its bucket cap decimates to stride 2.
func TestShardOracleSeedsReachTheirCases(t *testing.T) {
	for i, tc := range shardOracleSeeds {
		in := tc.instance()
		ia := buildInstanceAxis(in, tc.buckets)
		if ia.nshards < 2 {
			t.Errorf("seed %d: only %d shard(s); multi-shard sweeps untested", i, ia.nshards)
		}
		switch i {
		case 0:
			if tc.n <= shardJobTarget {
				t.Errorf("seed 0 inserts %d jobs, not past shardJobTarget %d", tc.n, shardJobTarget)
			}
			if least, most := sweepEvents(tc); least > smallSweep || most <= smallSweep {
				t.Errorf("seed 0 sweeps %d to %d events; want both sides of smallSweep %d", least, most, smallSweep)
			}
			if cut, whole := reachCuts(tc); cut == 0 || whole == 0 {
				t.Errorf("seed 0: %d queries stopped early at a chunk's reach and %d walked every chain; want both", cut, whole)
			}
		case 1:
			if tc.maxDemand != 1 {
				t.Errorf("seed 1 has demands up to %d; the MaxDepthWithin check needs unit demands", tc.maxDemand)
			}
		case 2:
			if ia.stride != 2 {
				t.Errorf("seed 2: %d distinct endpoints under a %d-bucket cap at stride %d; want stride 2", ia.last+1, tc.buckets, ia.stride)
			}
		}
	}
}

// TestSweepWitnessIsLowestMaximum pins which witness the oracle reports:
// the lowest endpoint inside the window at which the depth attains its
// maximum, where the first reported run starts. Verdicts do not depend on
// the choice, but witnesses feed the hint list, so another choice would
// change the kernel's work. Checked on the first two seeds of
// FuzzLoadShardsMatchesBrute, with brute-force depths per endpoint.
func TestSweepWitnessIsLowestMaximum(t *testing.T) {
	for _, tc := range shardOracleSeeds[:2] {
		in := tc.instance()
		h := newShardHarness(in, tc.buckets)
		next := splitmix(^tc.seed)
		pointDepth := make([]int, len(h.times))
		index := func(x float64) int {
			p, _ := slices.BinarySearch(h.times, x)
			return p
		}
		for step := 0; step < tc.n; step++ {
			h.add(step)
			job := in.Jobs[step]
			for p := index(job.Iv.Start); p <= index(job.Iv.End); p++ {
				pointDepth[p] += job.Demand
			}
			q := min(int(next()*float64(in.N())), in.N()-1)
			w := in.Jobs[q].Iv
			lo, hi := index(w.Start), index(w.End)
			lowest := lo + slices.Index(pointDepth[lo:hi+1], slices.Max(pointDepth[lo:hi+1]))
			depth, at := h.maxDepthRun(q)
			if at != h.times[lowest] {
				t.Fatalf("seed %d step %d: witness %v, want the lowest maximum %v (depth %d)", tc.seed, step, at, h.times[lowest], depth)
			}
			if first := h.pool.runs[0]; h.times[first.start] != at {
				t.Fatalf("seed %d step %d: first run %v does not start at the witness %v", tc.seed, step, first, at)
			}
		}
	}
}

// sweepEvents replays checkShardsAgainstBrute's insertions and queries for
// tc and returns the smallest and the largest event count of the non-empty
// shard sweeps they run: per shard of a query window's shard range, the
// inserted jobs overlapping the window clipped to the shard's tile, counted
// by brute force.
func sweepEvents(tc shardOracleCase) (least, most int) {
	in := tc.instance()
	ia := buildInstanceAxis(in, tc.buckets)
	next := splitmix(^tc.seed)
	least = math.MaxInt
	for step := 0; step < tc.n; step++ {
		q := min(int(next()*float64(in.N())), in.N()-1)
		for _, sub := range subWindows(ia, ia.jobSpan(q)) {
			events := 0
			for i := 0; i <= step; i++ {
				if ia.jobSpan(i).overlaps(sub) {
					events++
				}
			}
			if events > 0 {
				least, most = min(least, events), max(most, events)
			}
		}
	}
	return least, most
}

// reachCuts replays checkShardsAgainstBrute's insertions and queries for
// tc and counts the queries whose sweeps walked fewer items than the chains
// of their shards hold (the reach cut stopped one) and those that walked
// them whole, from the pool's walk count.
func reachCuts(tc shardOracleCase) (cut, whole int) {
	in := tc.instance()
	h := newShardHarness(in, tc.buckets)
	next := splitmix(^tc.seed)
	for step := 0; step < tc.n; step++ {
		h.add(step)
		q := min(int(next()*float64(in.N())), in.N()-1)
		slo, shi := h.ia.shardRange(h.ia.buckets(h.ia.jobSpan(q)))
		held := 0
		for k := slo; k <= shi; k++ {
			for c := h.ls.heads[k]; c != 0; c = h.pool.chunks[c].prev {
				held += int(h.pool.chunks[c].n)
			}
		}
		before := h.pool.walked
		h.maxDepthRun(q)
		if h.pool.walked-before < held {
			cut++
		} else {
			whole++
		}
	}
	return cut, whole
}

// instance generates tc's n+extra jobs, the n inserted ones in start order.
func (tc shardOracleCase) instance() *Instance {
	r := splitmix(tc.seed)
	snap := func(x float64) float64 {
		if tc.snap > 0 {
			return math.Round(x*float64(tc.snap)) / float64(tc.snap)
		}
		return x
	}
	ivs := make([]interval.Interval, tc.n+tc.extra)
	for i := range ivs {
		s := snap(r() * tc.horizon)
		ivs[i] = interval.Interval{Start: s, End: max(s, snap(s+r()*tc.maxLen))}
	}
	slices.SortStableFunc(ivs[:tc.n], func(a, b interval.Interval) int { return cmp.Compare(a.Start, b.Start) })
	in := NewInstance(4, ivs...)
	for i := range in.Jobs {
		in.Jobs[i].Demand = 1 + int(r()*float64(tc.maxDemand))
	}
	return in
}

// splitmix returns a SplitMix64 stream of floats in [0, 1) seeded by seed.
func splitmix(seed uint64) func() float64 {
	return func() float64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return float64((z^(z>>31))>>11) / (1 << 53)
	}
}

// checkShardsAgainstBrute inserts tc's jobs one at a time and, after each,
// queries the window of a random job of the instance, checking the depth,
// the witness and the reported runs against brute force (maxRuns). The
// brute-force load is kept per endpoint and per gap between consecutive
// endpoints: every maximum of the closed depth within a window is attained
// at an endpoint inside it, and a run at the maximum is a maximal range of
// endpoints whose gaps carry it too.
func checkShardsAgainstBrute(t *testing.T, tc shardOracleCase) {
	t.Helper()
	in := tc.instance()
	set := in.Set()
	next := splitmix(^tc.seed)
	h := newShardHarness(in, tc.buckets)
	// pointDepth[p] is the load of the inserted jobs at endpoint times[p],
	// gapDepth[p] their load strictly between times[p] and times[p+1].
	pointDepth := make([]int, len(h.times))
	gapDepth := make([]int, len(h.times))
	index := func(x float64) int {
		p, ok := slices.BinarySearch(h.times, x)
		if !ok {
			t.Fatalf("seed %d: %v is not a job endpoint", tc.seed, x)
		}
		return p
	}
	depthAt := func(x float64, added int) int {
		depth := 0
		for _, o := range in.Jobs[:added] {
			if o.Iv.Contains(x) {
				depth += o.Demand
			}
		}
		return depth
	}
	for step := 0; step < tc.n; step++ {
		h.add(step)
		job := in.Jobs[step]
		lo, hi := index(job.Iv.Start), index(job.Iv.End)
		for p := lo; p <= hi; p++ {
			pointDepth[p] += job.Demand
			if p < hi {
				gapDepth[p] += job.Demand
			}
		}
		added := step + 1
		q := min(int(next()*float64(in.N())), in.N()-1)
		w := in.Jobs[q].Iv
		want := slices.Max(pointDepth[index(w.Start) : index(w.End)+1])
		if tc.maxDemand == 1 {
			if sweep := set[:added].MaxDepthWithin(w); sweep != want {
				t.Fatalf("seed %d step %d: brute %d, sweep %d (w=%v)", tc.seed, step, want, sweep, w)
			}
		}
		got, at := h.maxDepthRun(q)
		if got != want {
			t.Fatalf("seed %d step %d: depth %d, brute %d (w=%v, shards=%d, stride %d)", tc.seed, step, got, want, w, h.ia.nshards, h.ia.stride)
		}
		if !w.Contains(at) || depthAt(at, added) != want {
			t.Fatalf("seed %d step %d: witness %v (depth %d) outside %v or below the maximum %d",
				tc.seed, step, at, depthAt(at, added), w, want)
		}
		if runs := maxRuns(subWindows(h.ia, h.ia.jobSpan(q)), pointDepth, gapDepth, want); !slices.Equal(h.pool.runs, runs) {
			t.Fatalf("seed %d step %d: runs %v at depth %d in %v, brute force %v (stride %d)", tc.seed, step, h.pool.runs, want, w, runs, h.ia.stride)
		}
	}
}

// maxRuns returns by brute force the maximal runs of the sub-windows subs
// at the window's maximum load depth: per sub-window whose own maximum is
// depth, in order, each maximal rank range whose endpoints and the gaps
// between them carry load depth, from the per-endpoint and per-gap loads.
func maxRuns(subs []span, pointDepth, gapDepth []int, depth int) []span {
	var runs []span
	for _, sub := range subs {
		if slices.Max(pointDepth[sub.start:sub.end+1]) != depth {
			continue
		}
		for p := sub.start; p <= sub.end; p++ {
			if pointDepth[p] != depth {
				continue
			}
			start := p
			for p < sub.end && gapDepth[p] == depth {
				p++
			}
			runs = append(runs, span{start, p})
		}
	}
	return runs
}

// TestBitmapCoversNarrowAxis drives the FirstFit and BestFit rules on a
// clique instance that opens 750 machines, more than the bitmap budget
// covers on the widest axis (512 at 2¹⁶ buckets). Its ~3,000-bucket axis
// fits every machine in the budget, and both indexed scans must match their
// brute-force references machine for machine. Each FirstFit placement is
// checked against lowestCanAssign the same way as in
// TestPlacerProbesDoNotPlace.
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
		checkProbe(t, indexed, j, lowestCanAssign, LowestFit)
		bruteFirstFit(plain, j)
		rec := best.record(j)
		if got, want := best.apply(BestFit, &rec), naiveBestFit(naive, j); got != want {
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
