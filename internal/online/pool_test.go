package online

import (
	"fmt"
	"sync"
	"testing"

	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

func TestPoolShardedTenantsConcurrent(t *testing.T) {
	pool, err := NewPool(4, FirstFit{}, 8, 64, core.NewScratchPool(2))
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

func TestPoolValidation(t *testing.T) {
	if _, err := NewPool(0, FirstFit{}, 4, 0, nil); err == nil {
		t.Error("g=0 accepted")
	}
	pool, err := NewPool(2, NextFit{}, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Offline("nobody"); err == nil {
		t.Error("Offline without scratch arenas accepted")
	}
	if ok, err := pool.Release("nobody", 3); ok || err != nil {
		t.Errorf("Release on unknown tenant = %v, %v", ok, err)
	}
	if _, _, err := pool.Place("a", interval.Interval{Start: 1, End: 0}, 1); err == nil {
		t.Error("reversed interval accepted")
	}
}
