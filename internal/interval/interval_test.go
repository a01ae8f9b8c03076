package interval

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPanics(t *testing.T) {
	cases := []struct {
		name       string
		start, end float64
	}{
		{"reversed", 2, 1},
		{"nan start", math.NaN(), 1},
		{"nan end", 0, math.NaN()},
		{"infinite end", 0, math.Inf(1)},
		{"infinite start", math.Inf(-1), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v,%v) did not panic", tc.start, tc.end)
				}
			}()
			New(tc.start, tc.end)
		})
	}
}

func TestLenAndPoint(t *testing.T) {
	if got := New(1, 4).Len(); got != 3 {
		t.Errorf("Len = %v, want 3", got)
	}
	if !New(2, 2).IsPoint() {
		t.Error("degenerate interval not reported as point")
	}
	if New(2, 3).IsPoint() {
		t.Error("non-degenerate interval reported as point")
	}
}

func TestContains(t *testing.T) {
	iv := New(1, 3)
	for _, tc := range []struct {
		t    float64
		want bool
	}{{0.999, false}, {1, true}, {2, true}, {3, true}, {3.001, false}} {
		if got := iv.Contains(tc.t); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestContainment(t *testing.T) {
	outer := New(0, 10)
	if !outer.ContainsInterval(New(2, 5)) {
		t.Error("ContainsInterval failed for strict subset")
	}
	if !outer.ContainsInterval(outer) {
		t.Error("ContainsInterval failed for equal interval")
	}
	if outer.ProperlyContains(outer) {
		t.Error("ProperlyContains true for equal interval")
	}
	if !outer.ProperlyContains(New(0, 5)) {
		t.Error("ProperlyContains false for shared-start subset")
	}
	if New(2, 5).ContainsInterval(outer) {
		t.Error("subset claims to contain superset")
	}
}

func TestOverlaps(t *testing.T) {
	a := New(0, 2)
	for _, tc := range []struct {
		b          Interval
		closed, op bool
	}{
		{New(2, 4), true, false},  // touching
		{New(1, 3), true, true},   // overlapping
		{New(3, 4), false, false}, // disjoint
		{New(0.5, 1), true, true}, // contained
	} {
		if got := a.Overlaps(tc.b); got != tc.closed {
			t.Errorf("Overlaps(%v,%v) = %v, want %v", a, tc.b, got, tc.closed)
		}
		if got := a.OverlapsOpen(tc.b); got != tc.op {
			t.Errorf("OverlapsOpen(%v,%v) = %v, want %v", a, tc.b, got, tc.op)
		}
	}
}

func TestIntersectAndHull(t *testing.T) {
	a, b := New(0, 3), New(2, 5)
	x, ok := a.Intersect(b)
	if !ok || x != New(2, 3) {
		t.Errorf("Intersect = %v,%v; want [2,3],true", x, ok)
	}
	if _, ok := New(0, 1).Intersect(New(2, 3)); ok {
		t.Error("disjoint intervals reported as intersecting")
	}
	x, ok = New(0, 1).Intersect(New(1, 2))
	if !ok || !x.IsPoint() {
		t.Errorf("touching intersection = %v,%v; want point", x, ok)
	}
	if h := a.Hull(New(7, 9)); h != New(0, 9) {
		t.Errorf("Hull = %v, want [0,9]", h)
	}
}

func TestShiftScale(t *testing.T) {
	if got := New(1, 2).Shift(3); got != New(4, 5) {
		t.Errorf("Shift = %v", got)
	}
	if got := New(1, 2).Scale(2); got != New(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("negative Scale did not panic")
		}
	}()
	New(1, 2).Scale(-1)
}

func TestSetTotalLenAndHull(t *testing.T) {
	s := Set{New(0, 1), New(2, 4), New(3, 6)}
	if got := s.TotalLen(); got != 6 {
		t.Errorf("TotalLen = %v, want 6", got)
	}
	h, ok := s.Hull()
	if !ok || h != New(0, 6) {
		t.Errorf("Hull = %v,%v; want [0,6],true", h, ok)
	}
	if _, ok := (Set{}).Hull(); ok {
		t.Error("empty set reported a hull")
	}
}

func TestUnionAndSpan(t *testing.T) {
	s := Set{New(3, 6), New(0, 1), New(1, 2), New(2, 4)}
	u := s.Union()
	if len(u) != 1 || u[0] != New(0, 6) {
		t.Errorf("Union = %v, want single [0,6]", u)
	}
	if got := s.Span(); got != 6 {
		t.Errorf("Span = %v, want 6", got)
	}
	gapped := Set{New(0, 1), New(5, 7)}
	if got := gapped.Span(); got != 3 {
		t.Errorf("Span with gap = %v, want 3", got)
	}
	if got := gapped.Union(); len(got) != 2 {
		t.Errorf("Union kept %d pieces, want 2", len(got))
	}
	if (Set{}).Union() != nil {
		t.Error("empty union should be nil")
	}
}

func TestDisjointCliqueProper(t *testing.T) {
	if !(Set{New(0, 1), New(1, 2)}).IsPairwiseDisjoint() {
		t.Error("touching intervals should be measure-disjoint")
	}
	if (Set{New(0, 2), New(1, 3)}).IsPairwiseDisjoint() {
		t.Error("overlapping intervals reported disjoint")
	}
	if !(Set{New(0, 3), New(1, 4), New(2, 5)}).IsClique() {
		t.Error("clique not detected")
	}
	if (Set{New(0, 1), New(2, 3)}).IsClique() {
		t.Error("non-clique reported as clique")
	}
	if !(Set{New(0, 2), New(1, 3)}).IsProper() {
		t.Error("proper set misclassified")
	}
	if (Set{New(0, 5), New(1, 2)}).IsProper() {
		t.Error("containment not detected by IsProper")
	}
	// Equal intervals contain but not properly.
	if !(Set{New(0, 1), New(0, 1)}).IsProper() {
		t.Error("duplicate intervals should count as proper")
	}
}

func TestCommonPoint(t *testing.T) {
	s := Set{New(0, 5), New(3, 8), New(4, 6)}
	pt, ok := s.CommonPoint()
	if !ok {
		t.Fatal("no common point found")
	}
	for _, iv := range s {
		if !iv.Contains(pt) {
			t.Errorf("common point %v outside %v", pt, iv)
		}
	}
	if _, ok := (Set{New(0, 1), New(2, 3)}).CommonPoint(); ok {
		t.Error("common point reported for disjoint set")
	}
}

func TestMaxDepthClosedSemantics(t *testing.T) {
	// [0,1] and [1,2] touch at 1: closed depth is 2, open profile max is 1.
	s := Set{New(0, 1), New(1, 2)}
	if got := s.MaxDepth(); got != 2 {
		t.Errorf("MaxDepth = %d, want 2 (closed)", got)
	}
	maxOpen := 0
	for _, sg := range s.DepthProfile() {
		if sg.Depth > maxOpen {
			maxOpen = sg.Depth
		}
	}
	if maxOpen != 1 {
		t.Errorf("open profile max = %d, want 1", maxOpen)
	}
}

func TestDepthAtAndWithin(t *testing.T) {
	s := Set{New(0, 4), New(1, 3), New(2, 6), New(5, 7)}
	if got := s.DepthAt(2.5); got != 3 {
		t.Errorf("DepthAt(2.5) = %d, want 3", got)
	}
	if got := s.MaxDepthWithin(New(4.5, 7)); got != 2 {
		t.Errorf("MaxDepthWithin = %d, want 2", got)
	}
	if got := s.MaxDepthWithin(New(10, 12)); got != 0 {
		t.Errorf("MaxDepthWithin empty window = %d, want 0", got)
	}
}

func TestDepthProfile(t *testing.T) {
	s := Set{New(0, 2), New(1, 3), New(5, 6)}
	segs := s.DepthProfile()
	want := []DepthSegment{
		{Window: New(0, 1), Depth: 1},
		{Window: New(1, 2), Depth: 2},
		{Window: New(2, 3), Depth: 1},
		{Window: New(3, 5), Depth: 0},
		{Window: New(5, 6), Depth: 1},
	}
	if len(segs) != len(want) {
		t.Fatalf("profile = %v, want %v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Errorf("segment %d = %v, want %v", i, segs[i], want[i])
		}
	}
	if (Set{}).DepthProfile() != nil {
		t.Error("empty profile should be nil")
	}
}

func TestIntegrateDepth(t *testing.T) {
	s := Set{New(0, 2), New(1, 3)}
	if got := s.IntegrateDepth(func(d int) float64 { return float64(d) }); got != s.TotalLen() {
		t.Errorf("∫depth = %v, want TotalLen %v", got, s.TotalLen())
	}
	ind := s.IntegrateDepth(func(d int) float64 {
		if d > 0 {
			return 1
		}
		return 0
	})
	if ind != s.Span() {
		t.Errorf("∫[depth>0] = %v, want Span %v", ind, s.Span())
	}
}

func TestSortOrders(t *testing.T) {
	s := Set{New(2, 3), New(0, 5), New(0, 2), New(1, 4)}
	s.SortByStart()
	for i := 1; i < len(s); i++ {
		if s[i-1].Start > s[i].Start {
			t.Fatalf("SortByStart violated at %d: %v", i, s)
		}
	}
	s.SortByLenDesc()
	for i := 1; i < len(s); i++ {
		if s[i-1].Len() < s[i].Len() {
			t.Fatalf("SortByLenDesc violated at %d: %v", i, s)
		}
	}
}

// randomSet builds a reproducible random set for property tests.
func randomSet(r *rand.Rand, n int) Set {
	s := make(Set, n)
	for i := range s {
		start := r.Float64() * 100
		s[i] = New(start, start+r.Float64()*20)
	}
	return s
}

func TestQuickSpanAtMostTotalLen(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%32)+1)
		return s.Span() <= s.TotalLen()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSpanEqualsTotalLenIffDisjoint(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%16)+1)
		near := math.Abs(s.Span()-s.TotalLen()) < 1e-9
		return near == s.IsPairwiseDisjoint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickUnionPreservesMeasureAndDisjoint(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%32)+1)
		u := s.Union()
		if !u.IsPairwiseDisjoint() {
			return false
		}
		return math.Abs(u.TotalLen()-s.Span()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDepthIntegralMatchesTotalLen(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%32)+1)
		got := s.IntegrateDepth(func(d int) float64 { return float64(d) })
		return math.Abs(got-s.TotalLen()) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMaxDepthBounds(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		s := randomSet(rand.New(rand.NewSource(seed)), int(sz%32)+1)
		d := s.MaxDepth()
		if d < 1 || d > len(s) {
			return false
		}
		// Open-profile max never exceeds closed max depth.
		for _, sg := range s.DepthProfile() {
			if sg.Depth > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkSpan(b *testing.B) {
	s := randomSet(rand.New(rand.NewSource(1)), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.Span()
	}
}

func BenchmarkMaxDepth(b *testing.B) {
	s := randomSet(rand.New(rand.NewSource(1)), 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.MaxDepth()
	}
}
