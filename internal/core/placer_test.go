package core

import (
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
// and NextFit against bruteNextFit. After every placement it checks that the
// hints the kernel decides on without a query stay sound (checkHintsSound).
// The seeds are TestPlacerBestFitMatchesNaive's instances.
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
		in := randInstance(r, max(1, int(n)), g)
		times := rankTimes(in)
		for _, tc := range rules {
			s, ref := NewSchedule(in), NewSchedule(in)
			cursor := Unassigned
			for j := range in.Jobs {
				want := tc.brute(ref, j, &cursor)
				if got := s.Apply(tc.rule, j); got != want {
					t.Fatalf("seed %d %s: job %d on machine %d, brute force %d", seed, tc.name, j, got, want)
				}
				checkHintsSound(t, s, times)
			}
			if err := s.Verify(); err != nil {
				t.Fatalf("seed %d %s: %v", seed, tc.name, err)
			}
			if s.Cost() != ref.Cost() {
				t.Fatalf("seed %d %s: cost %v, brute force %v", seed, tc.name, s.Cost(), ref.Cost())
			}
		}
	})
}

// checkHintsSound fails unless every machine's peak is at least its true
// maximum load and every saturation witness's depth is at most the true load
// at its endpoint, both computed by brute force from the machine's jobs;
// times[r] is the endpoint of rank r (rankTimes).
func checkHintsSound(t *testing.T, s *Schedule, times []float64) {
	t.Helper()
	for m := range s.machines {
		st := &s.machines[m]
		if load := maxWeightedDepth(s.inst, st.jobs); st.peak < load {
			t.Fatalf("machine %d: peak hint %d below its load %d", m, st.peak, load)
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
	return s.bestFitProbe(&r)
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
