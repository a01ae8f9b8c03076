package core

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// bruteFits decides whether job j fits machine m of s by brute force,
// independently of every capacity structure of the schedule: the machine's
// jobs plus j must stay within g everywhere.
func bruteFits(s *Schedule, j, m int) bool {
	jobs := append(slices.Clone(s.MachineJobs(m)), j)
	return maxWeightedDepth(s.inst, jobs) <= s.inst.G
}

// bruteFirstFit places job j on the lowest-indexed machine that fits by
// bruteFits, opening a fresh machine when none does, and returns it.
func bruteFirstFit(s *Schedule, j int) int {
	for m := 0; m < s.NumMachines(); m++ {
		if bruteFits(s, j, m) {
			s.Assign(j, m)
			return m
		}
	}
	return s.AssignNew(j)
}

// naiveBestFit replicates the un-pruned BestFit argmin on a parallel
// schedule: check every machine in index order by brute force, rank feasible
// ones by span delta, ties to the lowest index.
func naiveBestFit(s *Schedule, j int) int {
	iv := s.inst.Jobs[j].Iv
	bestM, bestDelta := -1, 0.0
	for m := 0; m < s.NumMachines(); m++ {
		if !bruteFits(s, j, m) {
			continue
		}
		if delta := s.SpanDelta(m, iv); bestM < 0 || delta < bestDelta {
			bestM, bestDelta = m, delta
		}
	}
	if bestM < 0 {
		return s.AssignNew(j)
	}
	s.Assign(j, bestM)
	return bestM
}

// bruteNextFit places job j on the open machine *cursor of the NextFit
// reference schedule s when it fits by bruteFits, and otherwise opens a
// fresh machine for it and makes that the open one; it returns the machine.
func bruteNextFit(s *Schedule, j int, cursor *int) int {
	if *cursor != Unassigned && bruteFits(s, j, *cursor) {
		s.Assign(j, *cursor)
		return *cursor
	}
	*cursor = s.AssignNew(j)
	return *cursor
}

// FuzzPlacerMatchesBrute drives every placement rule on a random
// demand-weighted instance against its brute-force reference, placement by
// placement: FirstFit against bruteFirstFit, BestFit against naiveBestFit
// and NextFit against bruteNextFit, each in index order and in start order
// (where placements keep landing after a machine's busy hull, so the tail
// peak restarts), on the instance and on a copy with its endpoints snapped
// to halves (where windows start exactly on a machine's gap). After every
// placement it checks that the hints the kernel decides on without a
// query, the saturation bitmap's marks and the shard chains' reach stay
// sound (checkHintsSound). The seeds are TestPlacerBestFitMatchesNaive's
// instances.
func FuzzPlacerMatchesBrute(f *testing.F) {
	for seed := int64(0); seed < 25; seed++ {
		f.Add(seed, uint8(140))
	}
	rules := []struct {
		name  string
		rule  Rule
		brute func(s *Schedule, j int, cursor *int) int
	}{
		{"FirstFit", LowestFit, func(s *Schedule, j int, _ *int) int { return bruteFirstFit(s, j) }},
		{"BestFit", BestFit, func(s *Schedule, j int, _ *int) int { return naiveBestFit(s, j) }},
		{"NextFit", NextFit, bruteNextFit},
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		g := 1 + r.Intn(5)
		plain := randInstance(r, max(1, int(n)), g)
		snapped := &Instance{G: g, Jobs: slices.Clone(plain.Jobs)}
		for i := range snapped.Jobs {
			iv := &snapped.Jobs[i].Iv
			iv.Start = math.Round(2*iv.Start) / 2
			iv.End = max(iv.Start, math.Round(2*iv.End)/2)
		}
		for _, inst := range []struct {
			name string
			in   *Instance
		}{{"plain", plain}, {"snapped", snapped}} {
			in := inst.in
			times := rankTimes(in)
			indexOrder := make([]int32, in.N())
			for j := range indexOrder {
				indexOrder[j] = int32(j)
			}
			orders := []struct {
				name string
				jobs []int32
			}{{"index order", indexOrder}, {"start order", in.StartOrder()}}
			for _, tc := range rules {
				for _, order := range orders {
					s, ref := NewSchedule(in), NewSchedule(in)
					cursor := Unassigned
					var marked bitmapSnapshot
					for _, j := range order.jobs {
						want := tc.brute(ref, int(j), &cursor)
						if got := s.Apply(tc.rule, int(j)); got != want {
							t.Fatalf("seed %d %s %s in %s: job %d on machine %d, brute force %d", seed, inst.name, tc.name, order.name, j, got, want)
						}
						checkHintsSound(t, s, times, &marked)
					}
					if err := s.Verify(); err != nil {
						t.Fatalf("seed %d %s %s in %s: %v", seed, inst.name, tc.name, order.name, err)
					}
					if s.Cost() != ref.Cost() {
						t.Fatalf("seed %d %s %s in %s: cost %v, brute force %v", seed, inst.name, tc.name, order.name, s.Cost(), ref.Cost())
					}
				}
			}
		}
	})
}

// checkHintsSound fails unless every machine's peak is at least its true
// maximum load, its tail peak at least its true maximum load after its gap,
// every saturation witness's depth at most the true load at its endpoint,
// all computed by brute force from the machine's jobs, every chunk of its
// shard chains stores as reach the largest end rank in itself and the
// chunks behind it, and every bitmap mark is sound (checkBitmapSound, on
// the bits set since the bitmap *marked holds); times[r] is the endpoint
// of rank r (rankTimes).
func checkHintsSound(t *testing.T, s *Schedule, times []float64, marked *bitmapSnapshot) {
	t.Helper()
	checkBitmapSound(t, s, times, marked)
	for m := range s.machines {
		st := &s.machines[m]
		if load := maxWeightedDepth(s.inst, st.jobs); st.peak < load {
			t.Fatalf("machine %d: peak hint %d below its load %d", m, st.peak, load)
		}
		if load := loadAfter(s.inst, st.jobs, st.gap); st.tail < load {
			t.Fatalf("machine %d: tail peak %d below its load %d after the gap at %v", m, st.tail, load, st.gap)
		}
		for k, h := range st.shards.heads {
			var chain []int32
			for ; h != 0; h = s.pool.chunks[h].prev {
				chain = append(chain, h)
			}
			reach := int32(-1)
			for i := len(chain) - 1; i >= 0; i-- {
				c := &s.pool.chunks[chain[i]]
				for _, it := range c.items[:c.n] {
					reach = max(reach, it.w.end)
				}
				if c.reach != reach {
					t.Fatalf("machine %d shard %d: chunk %d has reach %d, the largest end rank in and behind it is %d", m, k, chain[i], c.reach, reach)
				}
			}
		}
		for _, h := range st.hot[:st.nhot] {
			at, load := times[h.at], 0
			for _, j := range st.jobs {
				if iv := s.inst.Jobs[j].Iv; iv.Start <= at && at <= iv.End {
					load += s.inst.Jobs[j].Demand
				}
			}
			if int(h.depth) > load {
				t.Fatalf("machine %d: witness depth %d at %v above the load %d there", m, h.depth, at, load)
			}
		}
	}
}

// checkBitmapSound fails unless every set bit of every in-budget bitmap
// column holds by brute force: for raw bit m of bucket b, machine m carries
// load ≥ g at every endpoint inside the bucket's closed range and between
// every two consecutive ones (machineLoads), and for group-full bit m of
// group k the same holds over all of the group's buckets; times[r] is the
// endpoint of rank r. Every summary word must equal the OR of its group's
// raw words and its group-full word. It checks only the bits missing from
// the snapshot *seen holds, then copies the bitmap there: machines only
// gain jobs, so a bit found sound stays sound, and checking after every
// placement checks every bit.
func checkBitmapSound(t *testing.T, s *Schedule, times []float64, seen *bitmapSnapshot) {
	t.Helper()
	ix, g := s.index, s.inst.G
	var point, gap []int
	// saturated fails unless machine m's load is ≥ g on buckets [b, e),
	// the bucket or group i that a bit of the level named what stands for.
	saturated := func(m, b, e int, what string, i int) {
		lo, hi := s.ia.BoundaryRank(b), s.ia.BoundaryRank(e)
		for r := lo; r <= hi; r++ {
			if point[r] < g || r < hi && gap[r] < g {
				t.Fatalf("machine %d: %s %d [%v, %v] is marked saturated, but its load is %d at %v and %d just after, g = %d",
					m, what, i, times[lo], times[hi], point[r], times[r], gap[r], g)
			}
		}
	}
	for w := range ix.words {
		col, full := ix.mask[w*ix.nb:(w+1)*ix.nb], ix.full[w*ix.ng:(w+1)*ix.ng]
		oldCol, oldFull := make([]uint64, ix.nb), make([]uint64, ix.ng)
		if len(seen.mask) >= (w+1)*ix.nb {
			oldCol, oldFull = seen.mask[w*ix.nb:(w+1)*ix.nb], seen.full[w*ix.ng:(w+1)*ix.ng]
		}
		var fresh uint64
		for k, word := range full {
			want := word
			for _, x := range col[k<<5 : min(k<<5+32, ix.nb)] {
				want |= x
			}
			if sum := ix.sum[w*ix.ng+k]; sum != want {
				t.Fatalf("column %d group %d: summary %#x, want the OR of its raw and group-full words %#x", w, k, sum, want)
			}
			fresh |= word &^ oldFull[k]
		}
		for b, word := range col {
			fresh |= word &^ oldCol[b]
		}
		for ; fresh != 0; fresh &= fresh - 1 {
			m, bit := 64*w+bits.TrailingZeros64(fresh), fresh&-fresh
			if m >= len(s.machines) {
				t.Fatalf("machine %d, which is not open, has buckets marked saturated", m)
			}
			point, gap = machineLoads(s, m, times, point, gap)
			for b, word := range col {
				if (word&^oldCol[b])&bit != 0 {
					saturated(m, b, b+1, "bucket", b)
				}
			}
			for k, word := range full {
				if (word&^oldFull[k])&bit != 0 {
					saturated(m, k<<5, min(k<<5+32, ix.nb), "group", k)
				}
			}
		}
	}
	seen.mask = append(seen.mask[:0], ix.mask...)
	seen.full = append(seen.full[:0], ix.full...)
}

// bitmapSnapshot is a copy of a schedule's raw and group-full bitmap words
// (machindex mask and full).
type bitmapSnapshot struct{ mask, full []uint64 }

// machineLoads returns machine m's load at every endpoint, point[r] at
// times[r], and between every two consecutive ones, gap[r] strictly
// between times[r] and times[r+1], by brute force from its jobs, reusing
// the arrays passed in.
func machineLoads(s *Schedule, m int, times []float64, point, gap []int) ([]int, []int) {
	point, gap = append(point[:0], make([]int, len(times))...), append(gap[:0], make([]int, len(times))...)
	for _, j := range s.machines[m].jobs {
		job := s.inst.Jobs[j]
		a, _ := slices.BinarySearch(times, job.Iv.Start)
		e, _ := slices.BinarySearch(times, job.Iv.End)
		for r := a; r <= e; r++ {
			point[r] += job.Demand
			if r < e {
				gap[r] += job.Demand
			}
		}
	}
	return point, gap
}

// loadAfter returns the maximum demand-weighted closed load of jobs at the
// points after gap, by brute force: maxWeightedDepth of the jobs reaching
// past gap, each clipped to start no earlier than gap. At gap itself the
// clipped jobs give the load just after it.
func loadAfter(inst *Instance, jobs []int, gap float64) int {
	clipped := &Instance{G: inst.G}
	var idx []int
	for _, j := range jobs {
		if job := inst.Jobs[j]; job.Iv.End > gap {
			job.Iv.Start = max(job.Iv.Start, gap)
			idx = append(idx, len(clipped.Jobs))
			clipped.Jobs = append(clipped.Jobs, job)
		}
	}
	return maxWeightedDepth(clipped, idx)
}

// TestTailPeakSkipsQueryAfterGap pins the tail peak: once a machine is
// saturated, a job landing strictly after its busy hull restarts the bound
// on the load after that gap, so a later job starting after the gap is
// accepted on the tail peak instead of an oracle query, while one starting
// on the gap, where the saturating job ends, still reads the all-time peak.
func TestTailPeakSkipsQueryAfterGap(t *testing.T) {
	in := NewInstance(2, iv(0, 1), iv(2, 3), iv(1, 1.5), iv(2.5, 4))
	in.Jobs[0].Demand = 2
	s := NewSchedule(in)
	for j, want := range []int{0, 0, 1, 0} {
		if m := s.FirstFitAssign(j); m != want {
			t.Fatalf("job %d on machine %d, want %d", j, m, want)
		}
	}
	st := &s.machines[0]
	if st.gap != 1 || st.peak != 2 || st.tail != 2 {
		t.Fatalf("gap %v, peak %d, tail %d; want gap 1, peak 2, tail 2", st.gap, st.peak, st.tail)
	}
	// Job 2 is rejected by a query on machine 0; job 3 is accepted there on
	// the tail peak alone.
	if w := s.Work(); w.Queries != 1 || w.QueryRejects != 1 || w.PeakAccepts != 1 || w.DisjointAccepts != 1 {
		t.Fatalf("work %+v; want one rejecting query, one disjoint and one peak accept", w)
	}
}

// TestFillMarkSkipsQuery pins the fill marks: a FirstFit placement that an
// oracle query shows to bring machine 0 to g marks the runs it saturates,
// so a later job inside one of them skips machine 0 through the bitmap
// without a probe, where it would otherwise pay a rejected query.
func TestFillMarkSkipsQuery(t *testing.T) {
	in := NewInstance(2, iv(0, 4), iv(1, 3), iv(6, 10), iv(3.5, 9), iv(7, 8))
	s := NewSchedule(in)
	for j := range 4 {
		if m := s.FirstFitAssign(j); m != 0 {
			t.Fatalf("job %d on machine %d, want 0", j, m)
		}
	}
	// Job 3's window reads the all-time peak 2, so its probe queries the
	// oracle, which finds load 1 on [3.5, 4] and [6, 9]: the job fills both
	// to g, and they hold four whole buckets.
	before := s.Work()
	if before.Queries != 1 || before.QueryRejects != 0 || before.Marks != 2 || before.MarkedBuckets != 4 {
		t.Fatalf("work %+v; want one accepting query and two marked runs of four buckets", before)
	}
	if m := s.FirstFitAssign(4); m != 1 {
		t.Fatalf("job 4 on machine %d, want 1", m)
	}
	if w := s.Work(); w.Probes != before.Probes || w.Queries != before.Queries {
		t.Fatalf("job 4 took %d probes and %d queries; want machine 0 skipped without either", w.Probes-before.Probes, w.Queries-before.Queries)
	}
}

// TestPlacerBestFitMatchesNaive drives the kernel BestFit against the naive
// scan on random demand-weighted instances and requires identical machine
// choices throughout.
func TestPlacerBestFitMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randInstance(r, 140, 1+r.Intn(5))
		a := NewSchedule(in)
		b := NewSchedule(in)
		for j := range in.Jobs {
			got := a.BestFit(j)
			want := naiveBestFit(b, j)
			if got != want {
				t.Fatalf("seed %d: job %d kernel chose machine %d, naive %d", seed, j, got, want)
			}
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Cost() != b.Cost() {
			t.Fatalf("seed %d: cost %v vs %v", seed, a.Cost(), b.Cost())
		}
	}
}

// TestPlacerNextFitCursor pins the cursor semantics: fill the current
// machine, abandon it permanently on overflow, and reset with the schedule.
func TestPlacerNextFitCursor(t *testing.T) {
	in := NewInstance(1,
		iv(0, 4), // opens M0
		iv(1, 2), // conflicts -> M1
		iv(5, 6), // fits M1 (current), M0 never revisited
	)
	s := NewSchedule(in)
	if m := s.NextFit(0); m != 0 {
		t.Fatalf("first placement on machine %d, want 0", m)
	}
	if m := s.NextFit(1); m != 1 {
		t.Fatalf("overflow placement on machine %d, want 1", m)
	}
	if m := s.NextFit(2); m != 1 {
		t.Fatalf("cursor placement on machine %d, want 1 (no revisiting)", m)
	}

	// A recycled schedule must reset the cursor.
	sc := new(Scratch)
	s2 := sc.NewSchedule(in)
	_ = s2.NextFit(0)
	s3 := sc.NewSchedule(in)
	if m := s3.NextFit(0); m != 0 {
		t.Fatalf("recycled schedule's cursor placed on machine %d, want fresh machine 0", m)
	}
}

// TestPlacerProbesDoNotPlace checks each probe against its placing call: the
// probe leaves the assignment, machine count and cost untouched and names
// the machine the placing call then uses, Unassigned meaning the call opens
// a fresh one. BestFit's probe is the kernel's own argmin; FirstFit's is the
// lowest machine CanAssign accepts, where the bitmap-pruned scan must land.
func TestPlacerProbesDoNotPlace(t *testing.T) {
	cases := []struct {
		name         string
		probe, place func(s *Schedule, j int) int
	}{
		{"BestFit", probeBestFit, (*Schedule).BestFit},
		{"FirstFit", lowestCanAssign, (*Schedule).FirstFitAssign},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(9))
			in := randInstance(r, 60, 3)
			s := NewSchedule(in)
			for j := range in.Jobs {
				checkProbe(t, s, j, tc.probe, tc.place)
			}
			if err := s.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// probeBestFit returns the machine BestFit would choose for job index j,
// without placing it.
func probeBestFit(s *Schedule, j int) int {
	r := s.record(j)
	m, _, _ := s.bestFitProbe(&r)
	return m
}

// lowestCanAssign returns the lowest open machine CanAssign accepts for job
// index j, Unassigned when none does.
func lowestCanAssign(s *Schedule, j int) int {
	for m := range s.NumMachines() {
		if s.CanAssign(j, m) {
			return m
		}
	}
	return Unassigned
}

// checkProbe runs probe then place for job j on s: the probe must not change
// the schedule, and place must use the probed machine, or a fresh one when
// the probe reported Unassigned.
func checkProbe(t *testing.T, s *Schedule, j int, probe, place func(*Schedule, int) int) {
	t.Helper()
	nm, cost := s.NumMachines(), s.Cost()
	m := probe(s, j)
	if s.MachineOf(j) != Unassigned || s.NumMachines() != nm || s.Cost() != cost {
		t.Fatalf("job %d: probe changed the schedule (machine %d, %d→%d machines, cost %v→%v)",
			j, s.MachineOf(j), nm, s.NumMachines(), cost, s.Cost())
	}
	want := m
	if m == Unassigned {
		want = nm
	}
	if got := place(s, j); got != want {
		t.Fatalf("job %d: probe said %d with %d machines open, placing call used %d", j, m, nm, got)
	}
}
