package online

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

func TestPoolShardedTenantsConcurrent(t *testing.T) {
	pool, err := NewPool(4, core.LowestFit, 8, 64, core.NewScratchPool(2))
	if err != nil {
		t.Fatal(err)
	}
	const tenants = 16
	var wg sync.WaitGroup
	for w := 0; w < tenants; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w)
			rng := xrand.New(int64(w))
			jobs := generator.Stream(int64(w), 2000, 32, 4)
			for _, j := range jobs {
				_, id, err := pool.Place(tenant, j.Iv, j.Demand)
				if err != nil {
					t.Error(err)
					return
				}
				if rng.Intn(3) == 0 {
					if _, err := pool.Release(tenant, id-rng.Intn(id+1)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := len(pool.Tenants()); got != tenants {
		t.Fatalf("%d tenants registered, want %d", got, tenants)
	}
	for w := 0; w < tenants; w++ {
		tenant := fmt.Sprintf("tenant-%d", w)
		st, ok := pool.Stats(tenant)
		if !ok || st.Placed != 2000 {
			t.Fatalf("%s: stats ok=%v placed=%d, want 2000", tenant, ok, st.Placed)
		}
		if st.Ratio != 0 && st.Ratio < 1-1e-9 {
			t.Fatalf("%s: competitive ratio %v < 1", tenant, st.Ratio)
		}
		cmp, err := pool.Offline(tenant)
		if err != nil {
			t.Fatalf("%s: Offline: %v", tenant, err)
		}
		if cmp.WindowCost < cmp.Bounds.Fractional-1e-9 {
			t.Fatalf("%s: window cost %v below its fractional bound %v", tenant, cmp.WindowCost, cmp.Bounds.Fractional)
		}
		if cmp.OnlineCost < cmp.WindowCost-1e-9 {
			t.Fatalf("%s: stream cost %v below its window's %v", tenant, cmp.OnlineCost, cmp.WindowCost)
		}
	}
	if !pool.Drop("tenant-0") || pool.Drop("tenant-0") {
		t.Fatal("Drop: want true then false")
	}
	if _, ok := pool.Stats("tenant-0"); ok {
		t.Fatal("dropped tenant still reports stats")
	}
	if _, _, err := pool.Place("tenant-0", interval.Interval{Start: 0, End: 1}, 1); err != nil {
		t.Fatalf("re-created tenant rejected: %v", err)
	}
}

// panics reports whether fn panicked, and with what.
func panics(fn func()) (p any) {
	defer func() { p = recover() }()
	fn()
	return nil
}

// TestPoolConcurrentMisuse drives one pool the way misbehaving clients
// would: goroutines share three tenants and interleave Place, PlaceBatch,
// Release of arbitrary job numbers, Stats, Offline and Drop, and one of
// them closes the pool midway. Nothing may panic, and every call must
// succeed or fail with an error its doc names: an out-of-order arrival (the
// tenant's feeders race each other), ErrPoolClosed once Close has
// returned, an unknown job or tenant after a Drop. After the run the
// drained pool still serves Release, Stats and Offline.
func TestPoolConcurrentMisuse(t *testing.T) {
	pool, err := NewPool(4, core.LowestFit, 2, 0, core.NewScratchPool(2))
	if err != nil {
		t.Fatal(err)
	}
	const workers, iters = 6, 300
	var ops, placed, outOfOrder, rejectedClosed atomic.Int64
	// placeErr classifies one placement's error; closed says whether the
	// pool was closed before the call.
	placeErr := func(op string, err error, closed bool) {
		switch {
		case err == nil && !closed:
			placed.Add(1)
		case errors.Is(err, ErrPoolClosed):
			rejectedClosed.Add(1)
		case err != nil && !closed && strings.Contains(err.Error(), "out-of-order arrival"):
			outOfOrder.Add(1)
		default:
			t.Errorf("%s (closed before the call: %v): %v", op, closed, err)
		}
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := xrand.New(int64(w))
			tenant := fmt.Sprintf("t%d", w%3)
			reqs, out := make([]PlaceRequest, 3), make([]PlaceResult, 3)
			for i := range iters {
				start := float64(i) + 0.25*float64(w)
				closed := pool.Closed()
				var op string
				call := func() {
					switch rng.Intn(8) {
					case 0, 1, 2:
						op = "Place"
						_, _, err := pool.Place(tenant, iv(start, start+1+float64(rng.Intn(8))), 1+rng.Intn(4))
						placeErr(op, err, closed)
					case 3:
						op = "PlaceBatch"
						for k := range reqs {
							s := start + 0.1*float64(k)
							reqs[k] = PlaceRequest{Iv: iv(s, s+float64(1+rng.Intn(8))), Demand: 1 + rng.Intn(4)}
						}
						if err := pool.PlaceBatch(tenant, reqs, out); err != nil {
							t.Errorf("PlaceBatch: %v", err)
						}
						for _, res := range out {
							placeErr(op, res.Err, closed)
						}
					case 4:
						op = "Release"
						if _, err := pool.Release(tenant, rng.Intn(2*iters)); err != nil && !strings.Contains(err.Error(), "no such job") {
							t.Errorf("Release: %v", err)
						}
					case 5:
						op = "Stats"
						pool.Stats(tenant)
					case 6:
						op = "Offline"
						if _, err := pool.Offline(tenant); err != nil && !strings.Contains(err.Error(), "unknown tenant") {
							t.Errorf("Offline: %v", err)
						}
					case 7:
						op = "Drop"
						if rng.Intn(4) == 0 {
							pool.Drop(tenant)
						}
					}
				}
				if p := panics(call); p != nil {
					t.Errorf("%s panicked: %v", op, p)
				}
				if ops.Add(1) == workers*iters/2 {
					pool.Close()
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d placed, %d out of order, %d rejected as closed", placed.Load(), outOfOrder.Load(), rejectedClosed.Load())
	if placed.Load() == 0 || !pool.Closed() {
		t.Fatalf("%d placements succeeded, closed = %v; the run exercised nothing", placed.Load(), pool.Closed())
	}
	if _, _, err := pool.Place("t0", iv(1e6, 1e6+1), 1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Place after Close: %v, want ErrPoolClosed", err)
	}
	for _, tenant := range pool.Tenants() {
		if _, ok := pool.Stats(tenant); !ok {
			t.Fatalf("%s: listed tenant has no stats", tenant)
		}
		if _, err := pool.Release(tenant, 0); err != nil {
			t.Fatalf("%s: Release on the drained pool: %v", tenant, err)
		}
		cmp, err := pool.Offline(tenant)
		if err != nil {
			t.Fatalf("%s: Offline on the drained pool: %v", tenant, err)
		}
		if cmp.WindowCost < cmp.Bounds.Fractional-1e-9 {
			t.Fatalf("%s: window cost %v below its fractional bound %v", tenant, cmp.WindowCost, cmp.Bounds.Fractional)
		}
	}
}

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, core.LowestFit, 4, 0, core.NewScratchPool(1)); err == nil {
		t.Error("g=0 accepted")
	}
	if _, err := NewPool(2, core.NextFit, 0, 0, nil); err == nil {
		t.Error("pool without an arena channel accepted")
	}
	pool, err := NewPool(2, core.NextFit, 0, 0, core.NewScratchPool(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Offline("nobody"); err == nil {
		t.Error("Offline of an unknown tenant accepted")
	}
	if ok, err := pool.Release("nobody", 3); ok || err != nil {
		t.Errorf("Release on unknown tenant = %v, %v", ok, err)
	}
	if _, _, err := pool.Place("a", interval.Interval{Start: 1, End: 0}, 1); err == nil {
		t.Error("reversed interval accepted")
	}
}
