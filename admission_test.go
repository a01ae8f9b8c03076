package busytime_test

import (
	"errors"
	"testing"

	"busytime"
)

// TestWithAdmissionPublicSurface wires the public option end to end: caps
// enforce with the typed errors, PlaceBatch matches per-call placement, and
// Close drains.
func TestWithAdmissionPublicSurface(t *testing.T) {
	s, err := busytime.New(busytime.WithAdmission(busytime.Admission{MaxLive: 2}))
	if err != nil {
		t.Fatal(err)
	}
	pool, err := s.OnlinePool(4, "firstfit")
	if err != nil {
		t.Fatal(err)
	}
	reqs := []busytime.PlaceRequest{
		{Iv: ival(0, 10), Demand: 1},
		{Iv: ival(1, 10), Demand: 1},
		{Iv: ival(2, 10), Demand: 1},
	}
	out := make([]busytime.PlaceResult, len(reqs))
	if err := pool.PlaceBatch("a", reqs, out); err != nil {
		t.Fatal(err)
	}
	if out[0].Err != nil || out[1].Err != nil {
		t.Fatalf("in-cap placements rejected: %+v", out[:2])
	}
	if !errors.Is(out[2].Err, busytime.ErrLiveLimit) {
		t.Fatalf("item 2: err = %v, want ErrLiveLimit", out[2].Err)
	}
	pool.Close()
	if !pool.Closed() {
		t.Fatal("Closed() = false")
	}
	if _, _, err := pool.Place("a", ival(3, 4)); !errors.Is(err, busytime.ErrPoolClosed) {
		t.Fatalf("Place on closed pool: %v, want ErrPoolClosed", err)
	}
	if ok, err := pool.Release("a", out[0].Job); !ok || err != nil {
		t.Fatalf("Release during drain = %v, %v", ok, err)
	}
}

// TestWithAdmissionValidation pins option-time rejection of bad limits.
func TestWithAdmissionValidation(t *testing.T) {
	for _, a := range []busytime.Admission{
		{MaxLive: -1}, {Rate: -2}, {Burst: -3},
	} {
		if _, err := busytime.New(busytime.WithAdmission(a)); err == nil {
			t.Errorf("Admission %+v accepted", a)
		}
	}
}
