package online

import (
	"math"
	"testing"

	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// refSession is the rebuild-from-scratch oracle for the rolling-horizon
// session: full history, no compaction, no incremental state — every
// decision recomputed naively from effective intervals. Streams are drawn on
// a dyadic grid so every measure and delta is exact in float64 and the
// differential can compare costs and argmin decisions bitwise.
type refSession struct {
	g      int
	rule   core.Rule
	jobs   []refJob
	nmach  int
	cursor int
	clock  float64
}

type refJob struct {
	iv       interval.Interval // effective (End clipped at release)
	demand   int
	machine  int
	released bool
}

func newRefSession(g int, rule core.Rule) *refSession {
	return &refSession{g: g, rule: rule, cursor: -1, clock: math.Inf(-1)}
}

// active reports whether job j holds capacity at time c: closed-interval
// semantics on the effective interval, uniformly for natural and early
// departures (a released job keeps its slot at the release instant).
func (r *refSession) active(j int, c float64) bool {
	return r.jobs[j].iv.End >= c
}

func (r *refSession) usedAt(m int, c float64) int {
	used := 0
	for j := range r.jobs {
		if r.jobs[j].machine == m && r.active(j, c) {
			used += r.jobs[j].demand
		}
	}
	return used
}

func (r *refSession) union(m int) interval.Set {
	var set interval.Set
	for j := range r.jobs {
		if r.jobs[j].machine == m {
			set = append(set, r.jobs[j].iv)
		}
	}
	return set
}

func (r *refSession) place(iv interval.Interval, demand int) int {
	c := iv.Start
	var m int
	switch r.rule {
	case core.LowestFit:
		m = r.nmach
		for cand := 0; cand < r.nmach; cand++ {
			if r.usedAt(cand, c)+demand <= r.g {
				m = cand
				break
			}
		}
	case core.BestFit:
		m = -1
		best := 0.0
		for cand := 0; cand < r.nmach; cand++ {
			if r.usedAt(cand, c)+demand > r.g {
				continue
			}
			set := r.union(cand)
			delta := append(set.Clone(), iv).Span() - set.Span()
			if m < 0 || delta < best {
				m, best = cand, delta
			}
		}
		if m < 0 {
			m = r.nmach
		}
	default: // nextFit
		if r.cursor >= 0 && r.usedAt(r.cursor, c)+demand <= r.g {
			m = r.cursor
		} else {
			m = r.nmach
		}
		r.cursor = m
	}
	if m == r.nmach {
		r.nmach++
	}
	r.jobs = append(r.jobs, refJob{iv: iv, demand: demand, machine: m})
	r.clock = c
	return m
}

func (r *refSession) release(j int) bool {
	jb := &r.jobs[j]
	if jb.released || jb.iv.End < r.clock {
		return false
	}
	jb.released = true
	if jb.iv.End > r.clock {
		jb.iv.End = r.clock
	}
	return true
}

func (r *refSession) cost() float64 {
	total := 0.0
	for m := 0; m < r.nmach; m++ {
		total += r.union(m).Span()
	}
	return total
}

func (r *refSession) live() int {
	n := 0
	for j := range r.jobs {
		if r.active(j, r.clock) {
			n++
		}
	}
	return n
}

// dead reports whether job j no longer holds capacity (released, or its end
// passed by the clock).
func (r *refSession) dead(j int) bool { return !r.active(j, r.clock) }

// runRollingDifferential drives a Session and the oracle through the same
// dyadic-grid Place/Release stream and pins every observable step by step.
func runRollingDifferential(t *testing.T, seed int64, n, g int, rule core.Rule) {
	t.Helper()
	rng := xrand.New(seed)
	sess, err := NewSession(g, rule)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefSession(g, rule)
	clock := 0.0
	placed := 0
	for placed < n {
		if placed > 0 && rng.Intn(3) == 0 { // release a random past job
			j := rng.Intn(placed)
			got, err := sess.Release(j)
			if err != nil {
				t.Fatalf("seed %d: Release(%d): %v", seed, j, err)
			}
			if want := ref.release(j); got != want {
				t.Fatalf("seed %d: Release(%d) = %v, oracle %v", seed, j, got, want)
			}
		} else {
			clock += float64(rng.Intn(8)) / 4
			iv := interval.Interval{Start: clock, End: clock + float64(rng.Intn(40))/4}
			demand := 1 + rng.Intn(g)
			m, err := sess.Place(iv, demand)
			if err != nil {
				t.Fatalf("seed %d: Place %v: %v", seed, iv, err)
			}
			if want := ref.place(iv, demand); m != want {
				t.Fatalf("seed %d job %d %v: session machine %d, oracle %d", seed, placed, iv, m, want)
			}
			placed++
		}
		if sess.Cost() != ref.cost() {
			t.Fatalf("seed %d after %d jobs: session cost %v, oracle %v (dyadic grid: must be exact)",
				seed, placed, sess.Cost(), ref.cost())
		}
		if sess.Machines() != ref.nmach {
			t.Fatalf("seed %d: session machines %d, oracle %d", seed, sess.Machines(), ref.nmach)
		}
		if sess.Live() != ref.live() {
			t.Fatalf("seed %d: session live %d, oracle %d", seed, sess.Live(), ref.live())
		}
		idle := 0
		for m := 0; m < ref.nmach; m++ {
			if ref.usedAt(m, ref.clock) == 0 {
				idle++
			}
		}
		if got := sess.Stats().IdleMachines; got != idle {
			t.Fatalf("seed %d: session idle machines %d, oracle %d", seed, got, idle)
		}
	}
	// MachineOf: within the retained window the assignment is history; a
	// record compacted away must have been dead in the oracle too.
	for j := 0; j < placed; j++ {
		if m := sess.MachineOf(j); m >= 0 {
			if m != ref.jobs[j].machine {
				t.Fatalf("seed %d: MachineOf(%d) = %d, oracle %d", seed, j, m, ref.jobs[j].machine)
			}
		} else if !ref.dead(j) {
			t.Fatalf("seed %d: MachineOf(%d) = -1 but oracle job is live", seed, j)
		}
	}
}

func TestOnlineSessionRollingDifferential(t *testing.T) {
	for _, tc := range []struct {
		name string
		rule core.Rule
	}{
		{"firstfit", core.LowestFit},
		{"bestfit", core.BestFit},
		{"nextfit", core.NextFit},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 12; seed++ {
				for _, g := range []int{1, 3, 8} {
					runRollingDifferential(t, seed, 250, g, tc.rule)
				}
			}
		})
	}
}

// FuzzOnlineSessionRollingOracle is the fuzz leg of the differential: the
// fuzzer picks the stream seed, length, parallelism and rule, and the
// interleaved Place/Release/compaction run must stay step-bitwise equal to
// the rebuild-from-scratch oracle.
func FuzzOnlineSessionRollingOracle(f *testing.F) {
	f.Add(int64(1), uint8(120), uint8(3), uint8(0))
	f.Add(int64(42), uint8(200), uint8(1), uint8(1))
	f.Add(int64(7), uint8(80), uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, g, ruleByte uint8) {
		if n == 0 || g == 0 {
			t.Skip()
		}
		rule := []core.Rule{core.LowestFit, core.BestFit, core.NextFit}[ruleByte%3]
		runRollingDifferential(t, seed, int(n), int(g), rule)
	})
}

// TestOnlineSessionFitTreeAtScale pins FirstFit's tree descent to a linear
// scan of the session's own loads with thousands of machines open: the
// rolling differential above never opens more than a few dozen, so the
// tree's growth steps and deep descents are exercised here.
func TestOnlineSessionFitTreeAtScale(t *testing.T) {
	const g, live, n = 2, 4096, 40_000
	sess, err := NewSession(g, core.LowestFit)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(3)
	for i, j := range generator.Stream(11, n, live, g) {
		sess.Advance(j.Iv.Start) // retire departures, so used is what Place sees
		want := len(sess.machines)
		for m := range sess.machines {
			if int(sess.machines[m].used)+j.Demand <= g {
				want = m
				break
			}
		}
		m, err := sess.Place(j.Iv, j.Demand)
		if err != nil {
			t.Fatal(err)
		}
		if m != want {
			t.Fatalf("arrival %d (demand %d): tree chose machine %d, scan %d of %d",
				i, j.Demand, m, want, len(sess.machines))
		}
		if rng.Intn(4) == 0 { // release ~25% of jobs early
			if _, err := sess.Release(i - rng.Intn(min(i+1, 64))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := sess.Machines(); got < 2048 {
		t.Fatalf("stream opened %d machines, want ≥ 2048", got)
	}
}

// TestOnlineSessionReleaseSemantics pins the un-billing arithmetic on a
// hand-built scenario.
func TestOnlineSessionReleaseSemantics(t *testing.T) {
	sess, err := NewSession(2, core.LowestFit)
	if err != nil {
		t.Fatal(err)
	}
	// Two jobs share machine 0; a third overflows to machine 1.
	if m, _ := sess.Place(interval.Interval{Start: 0, End: 10}, 1); m != 0 {
		t.Fatalf("job 0 on machine %d, want 0", m)
	}
	if m, _ := sess.Place(interval.Interval{Start: 1, End: 4}, 1); m != 0 {
		t.Fatalf("job 1 on machine %d, want 0", m)
	}
	if m, _ := sess.Place(interval.Interval{Start: 2, End: 6}, 2); m != 1 {
		t.Fatalf("job 2 on machine %d, want 1", m)
	}
	if got := sess.Cost(); got != 14 {
		t.Fatalf("cost %v, want 14", got)
	}
	// Releasing job 0 at clock 2 clips machine 0's busy span back to the
	// latest remaining end (job 1 runs to 4): cost drops by 10-4 = 6.
	if ok, err := sess.Release(0); !ok || err != nil {
		t.Fatalf("Release(0) = %v, %v", ok, err)
	}
	if got := sess.Cost(); got != 8 {
		t.Fatalf("cost after release %v, want 8", got)
	}
	// Double release is a no-op.
	if ok, err := sess.Release(0); ok || err != nil {
		t.Fatalf("second Release(0) = %v, %v; want false, nil", ok, err)
	}
	// Releasing job 2 leaves machine 1 fully idle: its whole remaining span
	// beyond the clock is un-billed (it ran [2,2], measure 0 beyond... the
	// span [2,6] clips to [2,2]) and the machine returns to the free pool.
	if ok, _ := sess.Release(2); !ok {
		t.Fatal("Release(2) refused")
	}
	if got := sess.Cost(); got != 4 {
		t.Fatalf("cost after releasing job 2: %v, want 4", got)
	}
	// The next arrival that fits probes the freed machine only after lower
	// indices: machine 0 still has capacity, so it wins; a conflicting
	// arrival lands on freed machine 1 instead of opening machine 2.
	if m, _ := sess.Place(interval.Interval{Start: 3, End: 5}, 1); m != 0 {
		t.Fatalf("reuse arrival on machine %d, want 0", m)
	}
	if m, _ := sess.Place(interval.Interval{Start: 3, End: 5}, 2); m != 1 {
		t.Fatalf("heavy arrival on machine %d, want freed machine 1", m)
	}
	if sess.Machines() != 2 {
		t.Fatalf("machines %d, want 2 (free pool reused)", sess.Machines())
	}
	// Future and negative indices are errors.
	if _, err := sess.Release(99); err == nil {
		t.Fatal("Release(99) accepted")
	}
	if _, err := sess.Release(-1); err == nil {
		t.Fatal("Release(-1) accepted")
	}
}

// TestOnlineSessionStatsLowerBound pins the incremental fractional bound to
// the offline computation over the effective instance, and the live ratio to
// cost/bound ≥ 1.
func TestOnlineSessionStatsLowerBound(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		const n = 300
		g := 1 + rng.Intn(6)
		sess, err := NewSessionSized(g, core.LowestFit, n) // presized: nothing compacts
		if err != nil {
			t.Fatal(err)
		}
		clock := 0.0
		for placed := 0; placed < n; {
			if placed > 0 && rng.Intn(4) == 0 {
				if _, err := sess.Release(rng.Intn(placed)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			clock += rng.Float64()
			iv := interval.Interval{Start: clock, End: clock + rng.Float64()*8}
			if _, err := sess.Place(iv, 1+rng.Intn(g)); err != nil {
				t.Fatal(err)
			}
			placed++
		}
		st := sess.Stats()
		want := core.FractionalBound(sess.Instance())
		if math.Abs(st.LowerBound-want) > 1e-9*(1+want) {
			t.Fatalf("seed %d: incremental bound %v, offline FractionalBound %v", seed, st.LowerBound, want)
		}
		if st.LowerBound > 0 && st.Cost < st.LowerBound-1e-9 {
			t.Fatalf("seed %d: cost %v below lower bound %v", seed, st.Cost, st.LowerBound)
		}
		if st.Ratio < 1-1e-9 {
			t.Fatalf("seed %d: live competitive ratio %v < 1", seed, st.Ratio)
		}
		// A far-future sentinel arrival flushes every pending departure, so
		// the counters partition the departed set exactly.
		if _, err := sess.Place(interval.Interval{Start: clock + 1e6, End: clock + 1e6}, 1); err != nil {
			t.Fatal(err)
		}
		st = sess.Stats()
		if st.Placed != n+1 || int(st.Released+st.Expired) != int(st.Placed)-st.Live {
			t.Fatalf("seed %d: counters placed=%d released=%d expired=%d live=%d don't partition",
				seed, st.Placed, st.Released, st.Expired, st.Live)
		}
	}
}

// TestOnlineSessionSnapshotAfterRelease pins snapshot self-consistency: the
// materialized window schedule verifies (released capacity re-used by later
// arrivals never double-books) and costs exactly the session's accrual when
// nothing has been compacted away.
func TestOnlineSessionSnapshotAfterRelease(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		const n = 200
		sess, err := NewSessionSized(3, core.BestFit, n)
		if err != nil {
			t.Fatal(err)
		}
		clock := 0.0
		for placed := 0; placed < n; {
			if placed > 0 && rng.Intn(3) == 0 {
				if _, err := sess.Release(rng.Intn(placed)); err != nil {
					t.Fatal(err)
				}
				continue
			}
			clock += float64(rng.Intn(6)) / 4
			iv := interval.Interval{Start: clock, End: clock + float64(rng.Intn(32))/4}
			if _, err := sess.Place(iv, 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
			placed++
		}
		sched, err := sess.Snapshot()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := sched.Cost(), sess.Cost(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: snapshot cost %v != session cost %v", seed, got, want)
		}
	}
}

// streamFeeder drives a session through a generator.Stream, releasing a
// fixed fraction of jobs early, deterministically.
type streamFeeder struct {
	sess *Session
	jobs []generator.StreamJob
	rng  *xrand.RNG
	next int
}

func (fd *streamFeeder) step(t testing.TB) {
	j := fd.jobs[fd.next]
	id := fd.sess.Jobs()
	if _, err := fd.sess.Place(j.Iv, j.Demand); err != nil {
		t.Fatal(err)
	}
	fd.next++
	if fd.rng.Intn(4) == 0 { // release ~25% of jobs early
		if _, err := fd.sess.Release(id - fd.rng.Intn(min(id+1, 64))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOnlineSessionZeroAllocSteadyState pins the rolling-horizon hot path —
// Place with automatic expiry, explicit Release, window compaction and a
// Stats read — to zero heap allocations once the session is warm.
func TestOnlineSessionZeroAllocSteadyState(t *testing.T) {
	const live = 256
	jobs := generator.Stream(5, 120_000, live, 3)
	sess, err := NewSession(8, core.LowestFit)
	if err != nil {
		t.Fatal(err)
	}
	fd := &streamFeeder{sess: sess, jobs: jobs, rng: xrand.New(17)}
	for fd.next < 60_000 { // warm: caps reach their high-water marks
		fd.step(t)
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < 500; i++ {
			fd.step(t)
		}
		if st := sess.Stats(); st.Live <= 0 {
			t.Fatal("stream drained during measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm rolling session allocated %v times per 500-op batch; want 0", allocs)
	}
}

// TestOnlineSessionWindowBoundedMemory pins the tentpole memory claim: on
// equal-length 1M-job streams, the session's retained-window high-water
// marks scale with the live window, not the stream length.
func TestOnlineSessionWindowBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-job streams")
	}
	const n = 1_000_000
	run := func(live int) Stats {
		sess, err := NewSession(64, core.LowestFit)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range generator.Stream(9, n, live, 1) {
			if _, err := sess.Place(j.Iv, j.Demand); err != nil {
				t.Fatal(err)
			}
		}
		return sess.Stats()
	}
	small, large := run(1_000), run(10_000)
	for _, c := range []struct {
		name string
		st   Stats
		live int
	}{{"live=1e3", small, 1_000}, {"live=1e4", large, 10_000}} {
		// The retained window (and its backing capacity) must track the
		// live population, not the 1M-job stream: compaction reclaims at
		// least half the array before any growth, so the cap stays within a
		// small constant of the peak window.
		if c.st.PeakWindow > 8*c.live {
			t.Errorf("%s: peak window %d > 8x live target", c.name, c.st.PeakWindow)
		}
		if c.st.WindowCap > 16*c.live {
			t.Errorf("%s: window cap %d > 16x live target", c.name, c.st.WindowCap)
		}
		if c.st.Placed != n || c.st.Expired == 0 || c.st.Compactions == 0 {
			t.Errorf("%s: stream did not exercise departures+compaction: %+v", c.name, c.st)
		}
	}
	if small.WindowCap >= large.WindowCap {
		t.Errorf("window cap does not scale with the live window: live=1e3 cap %d ≥ live=1e4 cap %d",
			small.WindowCap, large.WindowCap)
	}
}
