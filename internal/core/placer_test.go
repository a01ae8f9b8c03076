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

// TestPlacerProbesDoNotPlace checks each probe variant against its placing
// call: the probe leaves the assignment, machine count and cost untouched
// and names the machine the placing call then uses, Unassigned meaning the
// call opens a fresh one.
func TestPlacerProbesDoNotPlace(t *testing.T) {
	cases := []struct {
		name         string
		probe, place func(s *Schedule, j int) int
	}{
		{"BestFit", (*Schedule).BestFitProbe, (*Schedule).BestFit},
		{"FirstFit", (*Schedule).FirstFitProbe, (*Schedule).FirstFitAssign},
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
