package busytime_test

import (
	"context"
	"testing"

	"busytime"
)

// ival returns the closed interval [start, end]; the tests build only valid
// intervals, so an error panics.
func ival(start, end float64) busytime.Interval {
	iv, err := busytime.ParseInterval(start, end)
	if err != nil {
		panic(err)
	}
	return iv
}

// unitInstance builds a unit-demand instance with parallelism g through
// BuildInstance, panicking on invalid input like ival.
func unitInstance(g int, ivs ...busytime.Interval) *busytime.Instance {
	in, err := busytime.BuildInstance(g, busytime.UnitJobs(ivs...)...)
	if err != nil {
		panic(err)
	}
	return in
}

// solve runs the named algorithm on in through a fresh-schedule session, so
// the Result's schedule stays valid for the rest of the test.
func solve(t *testing.T, name string, in *busytime.Instance) (busytime.Result, error) {
	t.Helper()
	s, err := busytime.New(busytime.WithAlgorithm(name), busytime.WithFreshSchedules())
	if err != nil {
		t.Fatal(err)
	}
	return s.Solve(context.Background(), in)
}

// mustSolve is solve failing the test on an error.
func mustSolve(t *testing.T, name string, in *busytime.Instance) busytime.Result {
	t.Helper()
	res, err := solve(t, name, in)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

func TestFacadeRoundTrip(t *testing.T) {
	in := unitInstance(2,
		ival(0, 3),
		ival(1, 4),
		ival(2, 5),
		ival(10, 12),
	)
	ff := mustSolve(t, "firstfit", in)
	s := ff.Schedule
	if err := s.Verify(); err != nil {
		t.Fatalf("FirstFit: %v", err)
	}
	res, err := solve(t, "exact", in)
	if err != nil {
		t.Fatalf("Exact: %v", err)
	}
	opt := res.Schedule
	lb := ff.LowerBound()
	if opt.Cost() < lb-1e-9 {
		t.Errorf("OPT %v below LB %v", opt.Cost(), lb)
	}
	if s.Cost() > 4*opt.Cost()+1e-9 {
		t.Errorf("FirstFit %v exceeds 4·OPT %v", s.Cost(), opt.Cost())
	}
	b, err := busytime.AllBounds(in)
	if err != nil {
		t.Fatal(err)
	}
	if b.Fractional != lb {
		t.Errorf("AllBounds fractional %v != Result.LowerBound %v", b.Fractional, lb)
	}
}

// TestAllBoundsRejectsInvalid pins AllBounds to Solve's validation: a nil or
// invalid instance is an error, never a panic or a meaningless bound.
func TestAllBoundsRejectsInvalid(t *testing.T) {
	job := func(start, end float64, demand int) busytime.Job {
		return busytime.Job{ID: 0, Iv: busytime.Interval{Start: start, End: end}, Demand: demand}
	}
	cases := []struct {
		name string
		in   *busytime.Instance
	}{
		{"nil", nil},
		{"g = 0", &busytime.Instance{G: 0, Jobs: []busytime.Job{job(0, 1, 1)}}},
		{"reversed", &busytime.Instance{G: 1, Jobs: []busytime.Job{job(3, 1, 1)}}},
		{"demand > g", &busytime.Instance{G: 1, Jobs: []busytime.Job{job(0, 2, 5)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if b, err := busytime.AllBounds(tc.in); err == nil {
				t.Errorf("AllBounds accepted the instance: %+v", b)
			}
		})
	}
}

func TestFacadeProperGreedy(t *testing.T) {
	in := unitInstance(2,
		ival(0, 2),
		ival(1, 3),
		ival(2, 4),
	)
	if !in.IsProper() {
		t.Fatal("instance should be proper")
	}
	s := mustSolve(t, "properfit", in).Schedule
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	res, err := solve(t, "exact", in)
	if err != nil {
		t.Fatal(err)
	}
	if opt := res.Schedule; s.Cost() > 2*opt.Cost()+1e-9 {
		t.Errorf("greedy %v exceeds 2·OPT %v on proper instance", s.Cost(), opt.Cost())
	}
}

func TestFacadeCliqueSchedule(t *testing.T) {
	in := unitInstance(2,
		ival(0, 10),
		ival(2, 8),
		ival(4, 6),
	)
	res, err := solve(t, "clique", in)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(); err != nil {
		t.Fatal(err)
	}
	nonClique := unitInstance(2,
		ival(0, 1), ival(5, 6))
	if _, err := solve(t, "clique", nonClique); err == nil {
		t.Error("non-clique accepted")
	}
}

func TestFacadeBoundedLength(t *testing.T) {
	in := unitInstance(2,
		ival(0, 2),
		ival(1, 3),
		ival(4, 6),
	)
	res, err := solve(t, "boundedlength", in) // d from max length
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeLaminarAndPortfolio(t *testing.T) {
	lam := unitInstance(2,
		ival(0, 10),
		ival(1, 4),
		ival(5, 9),
		ival(2, 3),
	)
	res, err := solve(t, "laminar", lam)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schedule.Cost() != res.LowerBound() {
		t.Errorf("laminar cost %v != LB %v", res.Schedule.Cost(), res.LowerBound())
	}
	crossing := unitInstance(2,
		ival(0, 5), ival(3, 8))
	if _, err := solve(t, "laminar", crossing); err == nil {
		t.Error("non-laminar accepted")
	}

	res, err = solve(t, "portfolio", crossing)
	if err != nil {
		t.Fatal(err)
	}
	p, name := res.Schedule, res.Algorithm
	if name == "" || p.Verify() != nil {
		t.Errorf("portfolio: name=%q verify=%v", name, p.Verify())
	}
	res, err = solve(t, "exact", crossing)
	if err != nil {
		t.Fatal(err)
	}
	if opt := res.Schedule; p.Cost() != opt.Cost() {
		t.Errorf("portfolio %v != OPT %v on tiny instance", p.Cost(), opt.Cost())
	}
}
