package optical

import (
	"math"
	"testing"
	"testing/quick"

	"busytime/internal/algo/firstfit"
	"busytime/internal/core"
)

func TestValidateNetwork(t *testing.T) {
	bad := []*Network{
		{Nodes: 1, G: 1},
		{Nodes: 4, G: 0},
		{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 2, B: 2}}},
		{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 5}}},
		{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 1}, {ID: 0, A: 1, B: 2}}},
	}
	for i, n := range bad {
		if n.Validate() == nil {
			t.Errorf("case %d: invalid network accepted", i)
		}
	}
}

func TestReduction(t *testing.T) {
	n := &Network{Nodes: 6, G: 2, Paths: []Lightpath{{ID: 7, A: 1, B: 4}}}
	in := n.ToInstance()
	if in.G != 2 || in.N() != 1 {
		t.Fatalf("bad instance %+v", in)
	}
	j := in.Jobs[0]
	if j.ID != 7 || j.Iv.Start != 1.5 || j.Iv.End != 3.5 {
		t.Errorf("job = %+v, want [1.5,3.5] id 7", j)
	}
}

func TestEdgeSharingMatchesClosedSemantics(t *testing.T) {
	// (0,2) and (1,3) share edge (1,2): jobs [0.5,1.5] and [1.5,2.5] touch.
	n := &Network{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}, {ID: 1, A: 1, B: 3}}}
	in := n.ToInstance()
	if !in.Jobs[0].Iv.Overlaps(in.Jobs[1].Iv) {
		t.Error("edge-sharing lightpaths must overlap as jobs")
	}
	// (0,2) and (2,4) share no edge: jobs [0.5,1.5] and [2.5,3.5] disjoint.
	n2 := &Network{Nodes: 5, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}, {ID: 1, A: 2, B: 4}}}
	in2 := n2.ToInstance()
	if in2.Jobs[0].Iv.Overlaps(in2.Jobs[1].Iv) {
		t.Error("edge-disjoint lightpaths must not overlap as jobs")
	}
}

func TestRegeneratorsEqualBusyTime(t *testing.T) {
	// §4.2: coloring cost (regenerators) == schedule total busy time.
	for seed := int64(0); seed < 40; seed++ {
		net := RandomTraffic(seed, 20, 30, 10, 3)
		in := net.ToInstance()
		s := firstfit.Schedule(in)
		col, err := FromSchedule(net, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got, want := float64(col.Regenerators()), s.Cost(); math.Abs(got-want) > 1e-9 {
			t.Errorf("seed %d: regenerators %v != busy time %v", seed, got, want)
		}
	}
}

func TestColoringValidateCatchesGroomingViolation(t *testing.T) {
	n := &Network{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}, {ID: 1, A: 1, B: 3}}}
	c := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 0}}
	if c.Validate() == nil {
		t.Error("edge overload accepted")
	}
	c.Colors[1] = 1
	if err := c.Validate(); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
}

func TestColoringValidateCatchesUncolored(t *testing.T) {
	n := &Network{Nodes: 3, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}}}
	c := &Coloring{Net: n, Colors: map[int]int{}}
	if c.Validate() == nil {
		t.Error("uncolored lightpath accepted")
	}
}

func TestRegeneratorsHandComputed(t *testing.T) {
	// (0,3) passes nodes 1,2; (1,4) passes 2,3. Same wavelength: {1,2,3} = 3.
	n := &Network{Nodes: 5, G: 2, Paths: []Lightpath{{ID: 0, A: 0, B: 3}, {ID: 1, A: 1, B: 4}}}
	same := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 0}}
	if got := same.Regenerators(); got != 3 {
		t.Errorf("same wavelength: %d regenerators, want 3", got)
	}
	diff := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 1}}
	if got := diff.Regenerators(); got != 4 {
		t.Errorf("different wavelengths: %d regenerators, want 4", got)
	}
}

func TestADMsHandComputed(t *testing.T) {
	// Two same-wavelength paths meeting head-to-tail at node 2 with g=1:
	// ADMs: node0 right(1)=1, node2 left(1)/right(1) → max=1, node4 left=1.
	n := &Network{Nodes: 5, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}, {ID: 1, A: 2, B: 4}}}
	c := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 0}}
	if got := c.ADMs(); got != 3 {
		t.Errorf("ADMs = %d, want 3 (shared ADM at node 2)", got)
	}
	// Different wavelengths: no sharing at node 2 → 4 ADMs.
	c2 := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 1}}
	if got := c2.ADMs(); got != 4 {
		t.Errorf("ADMs = %d, want 4", got)
	}
}

func TestADMGrooming(t *testing.T) {
	// g=2, two same-wavelength paths both ending at node 3 via the same
	// edge: they share one ADM there.
	n := &Network{Nodes: 4, G: 2, Paths: []Lightpath{{ID: 0, A: 0, B: 3}, {ID: 1, A: 1, B: 3}}}
	c := &Coloring{Net: n, Colors: map[int]int{0: 0, 1: 0}}
	// Node 0: 1 ADM; node 1: 1 ADM; node 3: ceil(2/2)=1.
	if got := c.ADMs(); got != 3 {
		t.Errorf("ADMs = %d, want 3", got)
	}
}

func TestCostCombination(t *testing.T) {
	n := &Network{Nodes: 5, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 4}}}
	c := &Coloring{Net: n, Colors: map[int]int{0: 0}}
	reg, adm := float64(c.Regenerators()), float64(c.ADMs())
	if got := c.Cost(1); got != reg {
		t.Errorf("Cost(1) = %v, want %v", got, reg)
	}
	if got := c.Cost(0); got != adm {
		t.Errorf("Cost(0) = %v, want %v", got, adm)
	}
	if got := c.Cost(0.5); math.Abs(got-(reg+adm)/2) > 1e-12 {
		t.Errorf("Cost(0.5) = %v", got)
	}
}

func TestBreakdownConsistent(t *testing.T) {
	net := RandomTraffic(9, 15, 25, 8, 2)
	s := firstfit.Schedule(net.ToInstance())
	c, err := FromSchedule(net, s)
	if err != nil {
		t.Fatal(err)
	}
	bd := c.Breakdown()
	totalPaths, totalRegen := 0, 0
	for _, w := range bd {
		totalPaths += w.Lightpaths
		totalRegen += w.Regenerators
	}
	if totalPaths != len(net.Paths) {
		t.Errorf("breakdown paths %d, want %d", totalPaths, len(net.Paths))
	}
	if totalRegen != c.Regenerators() {
		t.Errorf("breakdown regenerators %d, want %d", totalRegen, c.Regenerators())
	}
	if len(bd) != c.Wavelengths() {
		t.Errorf("breakdown wavelengths %d, want %d", len(bd), c.Wavelengths())
	}
}

func TestQuickReductionRoundTrip(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		net := RandomTraffic(seed, 16, int(nn%30)+1, 8, 2)
		if net.Validate() != nil {
			return false
		}
		in := net.ToInstance()
		if in.Validate() != nil {
			return false
		}
		s := firstfit.Schedule(in)
		c, err := FromSchedule(net, s)
		if err != nil || c.Validate() != nil {
			return false
		}
		return math.Abs(float64(c.Regenerators())-s.Cost()) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFromScheduleRejectsInfeasible(t *testing.T) {
	net := &Network{Nodes: 4, G: 1, Paths: []Lightpath{{ID: 0, A: 0, B: 2}, {ID: 1, A: 1, B: 3}}}
	in := net.ToInstance()
	s := core.NewSchedule(in)
	m := s.OpenMachine()
	s.Assign(0, m)
	s.Assign(1, m) // violates g=1
	if _, err := FromSchedule(net, s); err == nil {
		t.Error("infeasible schedule converted to coloring")
	}
}

func BenchmarkTrafficToColoring(b *testing.B) {
	net := RandomTraffic(7, 64, 500, 20, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := firstfit.Schedule(net.ToInstance())
		if _, err := FromSchedule(net, s); err != nil {
			b.Fatal(err)
		}
	}
}
