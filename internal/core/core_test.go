package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"busytime/internal/interval"
)

func iv(s, e float64) interval.Interval { return interval.New(s, e) }

func TestNewInstance(t *testing.T) {
	in := NewInstance(2, iv(0, 1), iv(1, 3))
	if in.N() != 2 || in.G != 2 {
		t.Fatalf("bad instance: %+v", in)
	}
	for i, j := range in.Jobs {
		if j.ID != i || j.Demand != 1 {
			t.Errorf("job %d = %+v, want ID=%d demand=1", i, j, i)
		}
	}
	if err := in.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		in   *Instance
	}{
		{"bad g", &Instance{G: 0}},
		{"dup id", &Instance{G: 1, Jobs: []Job{{ID: 1, Iv: iv(0, 1), Demand: 1}, {ID: 1, Iv: iv(2, 3), Demand: 1}}}},
		{"zero demand", &Instance{G: 2, Jobs: []Job{{ID: 0, Iv: iv(0, 1)}}}},
		{"demand above g", &Instance{G: 2, Jobs: []Job{{ID: 0, Iv: iv(0, 1), Demand: 3}}}},
		{"infinite end", &Instance{G: 1, Jobs: []Job{{ID: 0, Iv: interval.Interval{Start: 0, End: math.Inf(1)}, Demand: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.in.Validate() == nil {
				t.Error("Validate accepted invalid instance")
			}
		})
	}
}

func TestMeasures(t *testing.T) {
	in := NewInstance(2, iv(0, 2), iv(1, 3), iv(5, 6))
	if got := in.TotalLen(); got != 5 {
		t.Errorf("TotalLen = %v, want 5", got)
	}
	if got := in.Span(); got != 4 {
		t.Errorf("Span = %v, want 4", got)
	}
	in.Jobs[0].Demand = 2
	if got := in.WeightedLen(); got != 7 {
		t.Errorf("WeightedLen = %v, want 7", got)
	}
	h, err := in.Hull()
	if err != nil || h != iv(0, 6) {
		t.Errorf("Hull = %v,%v", h, err)
	}
	if _, err := NewInstance(1).Hull(); err == nil {
		t.Error("Hull of empty instance should error")
	}
}

func TestSortOrders(t *testing.T) {
	in := NewInstance(2, iv(5, 6), iv(0, 4), iv(2, 3))
	in.SortJobsByLenDesc()
	if in.Jobs[0].Iv != iv(0, 4) {
		t.Errorf("longest first: got %v", in.Jobs[0].Iv)
	}
	in.SortJobsByStart()
	if in.Jobs[0].Iv != iv(0, 4) || in.Jobs[1].Iv != iv(2, 3) {
		t.Errorf("start order broken: %v", in.Jobs)
	}
}

func TestComponents(t *testing.T) {
	in := NewInstance(3, iv(0, 1), iv(1, 2), iv(4, 5), iv(4.5, 6), iv(10, 11))
	comps := in.Components()
	if len(comps) != 3 {
		t.Fatalf("got %d components, want 3", len(comps))
	}
	sizes := []int{2, 2, 1}
	total := 0
	for i, c := range comps {
		if c.N() != sizes[i] {
			t.Errorf("component %d size %d, want %d", i, c.N(), sizes[i])
		}
		if c.G != in.G {
			t.Errorf("component %d lost g", i)
		}
		total += c.N()
	}
	if total != in.N() {
		t.Errorf("components cover %d jobs, want %d", total, in.N())
	}
	// Touching intervals [0,1],[1,2] must be one component (closed semantics).
	if comps[0].N() != 2 {
		t.Error("touching jobs split across components")
	}
}

func TestScheduleAssignAndCost(t *testing.T) {
	in := NewInstance(2, iv(0, 2), iv(1, 3), iv(1.5, 2.5), iv(10, 12))
	s := NewSchedule(in)
	if s.Complete() {
		t.Error("empty schedule reported complete")
	}
	m0 := s.AssignNew(0)
	if !s.CanAssign(1, m0) {
		t.Error("second job should fit (g=2)")
	}
	s.Assign(1, m0)
	if s.CanAssign(2, m0) {
		t.Error("third overlapping job must not fit with g=2")
	}
	m1 := s.AssignNew(2)
	s.Assign(3, m1)
	if !s.Complete() {
		t.Error("schedule should be complete")
	}
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// Machine 0 busy [0,3] = 3; machine 1 busy [1.5,2.5] ∪ [10,12] = 3.
	if got := s.MachineBusy(m0); got != 3 {
		t.Errorf("busy(m0) = %v, want 3", got)
	}
	if got := s.MachineBusy(m1); got != 3 {
		t.Errorf("busy(m1) = %v, want 3", got)
	}
	if got := s.Cost(); got != 6 {
		t.Errorf("Cost = %v, want 6", got)
	}
}

func TestCanAssignTouchingConsumesCapacity(t *testing.T) {
	// Closed semantics: [0,1] and [1,2] overlap at point 1, so with g=1 they
	// cannot share a machine even though the overlap has measure zero.
	in := NewInstance(1, iv(0, 1), iv(1, 2))
	s := NewSchedule(in)
	m := s.AssignNew(0)
	if s.CanAssign(1, m) {
		t.Error("touching job admitted with g=1")
	}
	in2 := NewInstance(2, iv(0, 1), iv(1, 2))
	s2 := NewSchedule(in2)
	m2 := s2.AssignNew(0)
	if !s2.CanAssign(1, m2) {
		t.Error("touching job rejected with g=2")
	}
}

func TestDemandWeightedCapacity(t *testing.T) {
	in := NewInstance(3, iv(0, 4), iv(1, 3), iv(2, 5))
	in.Jobs[0].Demand = 2
	s := NewSchedule(in)
	m := s.AssignNew(0) // uses 2 of 3 slots on [0,4]
	if !s.CanAssign(1, m) {
		t.Error("unit job should fit in remaining slot")
	}
	s.Assign(1, m)
	if s.CanAssign(2, m) {
		t.Error("no capacity left on [2,3]; job must be rejected")
	}
	m2 := s.AssignNew(2)
	if err := s.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	_ = m2
}

func TestVerifyCatchesOverload(t *testing.T) {
	in := NewInstance(1, iv(0, 2), iv(1, 3))
	s := NewSchedule(in)
	m := s.AssignNew(0)
	s.Assign(1, m) // bypasses CanAssign on purpose
	if err := s.Verify(); err == nil {
		t.Error("Verify accepted overloaded machine")
	}
}

func TestVerifyCatchesUnassigned(t *testing.T) {
	in := NewInstance(2, iv(0, 1), iv(2, 3))
	s := NewSchedule(in)
	s.AssignNew(0)
	if err := s.Verify(); err == nil {
		t.Error("Verify accepted incomplete schedule")
	}
}

func TestAssignPanicsOnDouble(t *testing.T) {
	in := NewInstance(2, iv(0, 1))
	s := NewSchedule(in)
	m := s.AssignNew(0)
	defer func() {
		if recover() == nil {
			t.Error("double assign did not panic")
		}
	}()
	s.Assign(0, m)
}

func TestSummaryAndAssignmentRoundTrip(t *testing.T) {
	in := NewInstance(2, iv(0, 2), iv(1, 3), iv(5, 6))
	in.Jobs[0].ID = 10
	in.Jobs[1].ID = 20
	in.Jobs[2].ID = 30
	s := NewSchedule(in)
	m0 := s.AssignNew(0)
	s.Assign(1, m0)
	s.AssignNew(2)
	sum := s.Summary()
	if len(sum) != 2 {
		t.Fatalf("summary has %d machines, want 2", len(sum))
	}
	if sum[0].Cost != 3 || sum[1].Cost != 1 {
		t.Errorf("summary costs = %v,%v; want 3,1", sum[0].Cost, sum[1].Cost)
	}
	s2, err := FromAssignment(in, s.Assignment())
	if err != nil {
		t.Fatalf("FromAssignment: %v", err)
	}
	if err := s2.Verify(); err != nil {
		t.Fatalf("round-trip Verify: %v", err)
	}
	if s2.Cost() != s.Cost() {
		t.Errorf("round-trip cost %v != %v", s2.Cost(), s.Cost())
	}
}

// TestFromAssignmentMissingJob rejects assignments that do not name exactly
// the instance's jobs: a job left out, or an ID the instance lacks, which
// would otherwise open an empty machine of its own.
func TestFromAssignmentMissingJob(t *testing.T) {
	cases := []struct {
		in   *Instance
		byID map[int]int
		want string
	}{
		{NewInstance(2, iv(0, 1), iv(2, 3)), map[int]int{0: 0}, "missing job ID 1"},
		{NewInstance(2, iv(0, 1)), map[int]int{0: 0, 7: 3}, "job ID 7, which the instance lacks"},
	}
	for _, tc := range cases {
		s, err := FromAssignment(tc.in, tc.byID)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			machines := -1
			if s != nil {
				machines = s.NumMachines()
			}
			t.Errorf("FromAssignment(%v) = %d machines, error %v; want an error containing %q", tc.byID, machines, err, tc.want)
		}
	}
}

func TestBoundsOnKnownInstance(t *testing.T) {
	// Two disjoint unit jobs and one spanning job, g = 2.
	in := NewInstance(2, iv(0, 1), iv(2, 3), iv(0, 3))
	b := AllBounds(in)
	if b.Span != 3 {
		t.Errorf("span bound = %v, want 3", b.Span)
	}
	if b.Parallelism != 2.5 {
		t.Errorf("parallelism bound = %v, want 2.5", b.Parallelism)
	}
	// Depth is 2 on [0,1]∪[2,3], 1 on [1,2]: ceil = 1 everywhere → 3.
	if b.Fractional != 3 {
		t.Errorf("fractional bound = %v, want 3", b.Fractional)
	}
	if BestBound(in) != b.Fractional {
		t.Error("BestBound must be the fractional bound")
	}
}

func TestFractionalBoundWithDemands(t *testing.T) {
	in := NewInstance(2, iv(0, 1))
	in.Jobs[0].Demand = 2
	// One job of demand 2 with g=2: ceil(2/2)=1 over [0,1].
	if got := FractionalBound(in); got != 1 {
		t.Errorf("fractional = %v, want 1", got)
	}
	in.G = 1 // invalid per Validate but bound math still: ceil(2/1)=2
	if got := FractionalBound(in); got != 2 {
		t.Errorf("fractional = %v, want 2", got)
	}
}

func TestFractionalBoundEmptyAndPoints(t *testing.T) {
	if got := FractionalBound(NewInstance(2)); got != 0 {
		t.Errorf("empty fractional = %v", got)
	}
	if got := FractionalBound(NewInstance(2, iv(1, 1), iv(2, 2))); got != 0 {
		t.Errorf("point jobs fractional = %v, want 0", got)
	}
}

func randomInstance(r *rand.Rand, n, g int) *Instance {
	ivs := make([]interval.Interval, n)
	for i := range ivs {
		s := r.Float64() * 50
		ivs[i] = interval.New(s, s+r.Float64()*12)
	}
	return NewInstance(g, ivs...)
}

func TestQuickBoundDominance(t *testing.T) {
	f := func(seed int64, sz, gg uint8) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, int(sz%24)+1, int(gg%4)+1)
		b := AllBounds(in)
		const eps = 1e-9
		return b.Fractional+eps >= b.Span && b.Fractional+eps >= b.Parallelism
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickComponentsPreserveMeasure(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, int(sz%24)+1, 2)
		comps := in.Components()
		var totalLen, span, frac float64
		njobs := 0
		for _, c := range comps {
			totalLen += c.TotalLen()
			span += c.Span()
			frac += FractionalBound(c)
			njobs += c.N()
		}
		return njobs == in.N() &&
			math.Abs(totalLen-in.TotalLen()) < 1e-9 &&
			math.Abs(span-in.Span()) < 1e-9 &&
			math.Abs(frac-FractionalBound(in)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickScheduleCostAtLeastBestBound(t *testing.T) {
	// Any feasible schedule costs at least the fractional bound.
	f := func(seed int64, sz, gg uint8) bool {
		r := rand.New(rand.NewSource(seed))
		in := randomInstance(r, int(sz%16)+1, int(gg%3)+1)
		s := NewSchedule(in)
		// Arbitrary feasible assignment: first machine that fits, else new.
		for j := range in.Jobs {
			placed := false
			for m := 0; m < s.NumMachines(); m++ {
				if s.CanAssign(j, m) {
					s.Assign(j, m)
					placed = true
					break
				}
			}
			if !placed {
				s.AssignNew(j)
			}
		}
		if err := s.Verify(); err != nil {
			return false
		}
		return s.Cost() >= BestBound(in)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
