package online

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"busytime/internal/core"
)

func newTestPool(t *testing.T, shards int, scratch bool) *Pool {
	t.Helper()
	arenas := (chan *core.Scratch)(nil)
	if scratch {
		arenas = core.NewScratchPool(2)
	}
	pool, err := NewPool(4, FirstFit{}, shards, 0, arenas)
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// TestPoolLiveLimit pins ErrLiveLimit at the cap and re-admission after
// capacity frees via Release.
func TestPoolLiveLimit(t *testing.T) {
	p := newTestPool(t, 1, false)
	if err := p.SetAdmission(Admission{MaxLive: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Place("a", iv(0, 10), 1); err != nil {
		t.Fatal(err)
	}
	_, job2, err := p.Place("a", iv(1, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Place("a", iv(2, 10), 1); !errors.Is(err, ErrLiveLimit) {
		t.Fatalf("over-cap Place: err = %v, want ErrLiveLimit", err)
	}
	// Another tenant is unaffected: the cap is per tenant.
	if _, _, err := p.Place("b", iv(2, 10), 1); err != nil {
		t.Fatalf("tenant b rejected: %v", err)
	}
	// Freeing one slot re-admits. The slot frees one strict clock advance
	// after the release (closed-interval semantics), so step the clock.
	if ok, err := p.Release("a", job2); !ok || err != nil {
		t.Fatalf("Release = %v, %v", ok, err)
	}
	if _, _, err := p.Place("a", iv(3, 10), 1); err != nil {
		t.Fatalf("post-release Place: %v", err)
	}
}

// TestPoolRateLimit drives the token bucket on a hand-cranked clock:
// burst admits, exhaustion rejects with ErrRateLimit, refill re-admits.
func TestPoolRateLimit(t *testing.T) {
	p := newTestPool(t, 1, false)
	if err := p.SetAdmission(Admission{Rate: 10, Burst: 2}); err != nil {
		t.Fatal(err)
	}
	var clock int64
	p.now = func() int64 { return clock }

	start := 0.0
	place := func() error {
		start++
		_, _, err := p.Place("a", iv(start, start+100), 1)
		return err
	}
	if err := place(); err != nil {
		t.Fatal(err)
	}
	if err := place(); err != nil {
		t.Fatal(err)
	}
	if err := place(); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("exhausted bucket: err = %v, want ErrRateLimit", err)
	}
	// 10/s: one token back after 100ms.
	clock += 100e6
	if err := place(); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	if err := place(); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("bucket should hold at most the refill: %v", err)
	}
	// A long quiet period caps at Burst, not at elapsed×rate.
	clock += 3600 * 1e9
	for i := 0; i < 2; i++ {
		if err := place(); err != nil {
			t.Fatalf("burst refill place %d: %v", i, err)
		}
	}
	if err := place(); !errors.Is(err, ErrRateLimit) {
		t.Fatalf("burst cap: err = %v, want ErrRateLimit", err)
	}
}

// TestPoolPlaceAfterClose pins the drain contract: Place and PlaceBatch
// reject with the typed ErrPoolClosed, while Release, Stats and Drop keep
// working on the in-flight state.
func TestPoolPlaceAfterClose(t *testing.T) {
	p := newTestPool(t, 2, false)
	_, job, err := p.Place("a", iv(0, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close() // idempotent
	if !p.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if _, _, err := p.Place("a", iv(1, 10), 1); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Place on closed pool: err = %v, want ErrPoolClosed", err)
	}
	reqs := []PlaceRequest{{Iv: iv(1, 2), Demand: 1}, {Iv: iv(1, 3), Demand: 1}}
	out := make([]PlaceResult, 2)
	if err := p.PlaceBatch("a", reqs, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range out {
		if !errors.Is(r.Err, ErrPoolClosed) {
			t.Fatalf("batch item %d on closed pool: err = %v", i, r.Err)
		}
	}
	if ok, err := p.Release("a", job); !ok || err != nil {
		t.Fatalf("Release during drain = %v, %v", ok, err)
	}
	if _, ok := p.Stats("a"); !ok {
		t.Fatal("Stats during drain should work")
	}
	if !p.Drop("a") {
		t.Fatal("Drop during drain should work")
	}
}

// TestPoolPlaceAfterDrop pins eviction semantics: a dropped tenant's next
// Place starts a fresh session — no error, no panic — and stale Release
// handles into the dropped session report (false, nil), not a crash.
func TestPoolPlaceAfterDrop(t *testing.T) {
	p := newTestPool(t, 1, false)
	for i := 0; i < 5; i++ {
		if _, _, err := p.Place("a", iv(float64(i), 20), 1); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Drop("a") {
		t.Fatal("Drop reported no session")
	}
	if ok, err := p.Release("a", 3); ok || err != nil {
		t.Fatalf("Release after Drop = %v, %v, want false, nil", ok, err)
	}
	m, job, err := p.Place("a", iv(100, 110), 1)
	if err != nil {
		t.Fatalf("Place after Drop: %v", err)
	}
	if m != 0 || job != 0 {
		t.Fatalf("fresh session after Drop: machine %d job %d, want 0, 0", m, job)
	}
	st, ok := p.Stats("a")
	if !ok || st.Placed != 1 {
		t.Fatalf("fresh session stats = %+v, %v", st, ok)
	}
}

// TestPoolDropDuringOffline races Drop against an in-flight Offline replay
// (run under -race in CI): the replay owns a snapshot, so it must return a
// coherent comparison or a clean unknown-tenant error, never corrupt state.
func TestPoolDropDuringOffline(t *testing.T) {
	p := newTestPool(t, 2, true)
	for i := 0; i < 2000; i++ {
		if _, _, err := p.Place("a", iv(float64(i)*0.01, float64(i)*0.01+5), 1); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		cmp, err := p.Offline("a")
		if err == nil && (cmp.WindowCost <= 0 || cmp.Ratio < 1-1e-9) {
			err = fmt.Errorf("implausible comparison %+v", cmp)
		}
		errc <- err
	}()
	p.Drop("a")
	wg.Wait()
	if err := <-errc; err != nil && err.Error() != `online: unknown tenant "a"` {
		t.Fatalf("Offline racing Drop: %v", err)
	}
	if _, _, err := p.Place("a", iv(1e6, 1e6+1), 1); err != nil {
		t.Fatalf("pool unusable after Drop/Offline race: %v", err)
	}
}

// TestPoolChurnRaced hammers one pool from many goroutines mixing Place,
// Release, Stats, Drop, Tenants and Offline across colliding tenants — the
// concurrent-churn coverage the daemon relies on (run under -race in CI).
func TestPoolChurnRaced(t *testing.T) {
	p := newTestPool(t, 4, true)
	if err := p.SetAdmission(Admission{MaxLive: 64, Rate: 1e9}); err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", w%3) // force key collisions
			for i := 0; i < 400; i++ {
				start := float64(w*1000 + i) // per-goroutine clocks collide across tenants; errors are expected
				_, job, err := p.Place(tenant, iv(start, start+10), 1)
				if err == nil && i%3 == 0 {
					// Between the Place and this Release, a sibling goroutine
					// sharing the tenant may Drop it and another may re-create
					// it with fewer placements, so the job number can be
					// unknown to the new session. Any other error is a bug.
					if _, err := p.Release(tenant, job); err != nil && !strings.Contains(err.Error(), "no such job") {
						t.Errorf("Release: %v", err)
					}
				}
				switch i % 97 {
				case 13:
					p.Stats(tenant)
				case 31:
					p.Tenants()
				case 53:
					p.Drop(tenant)
				case 71:
					p.Offline(tenant)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPoolPlaceBatchMatchesPlace pins the batched path byte-identical to
// the per-call path on a fresh pool, including interleaved rejects.
func TestPoolPlaceBatchMatchesPlace(t *testing.T) {
	mk := func() *Pool {
		p := newTestPool(t, 1, false)
		if err := p.SetAdmission(Admission{MaxLive: 3}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	reqs := make([]PlaceRequest, 8)
	for i := range reqs {
		reqs[i] = PlaceRequest{Iv: iv(float64(i), float64(i)+6), Demand: 1 + i%2}
	}
	single := mk()
	want := make([]PlaceResult, len(reqs))
	for i, r := range reqs {
		m, j, err := single.Place("a", r.Iv, r.Demand)
		want[i] = PlaceResult{Machine: m, Job: j, Err: err}
	}
	batched := mk()
	got := make([]PlaceResult, len(reqs))
	if err := batched.PlaceBatch("a", reqs, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Machine != want[i].Machine || got[i].Job != want[i].Job || !errors.Is(got[i].Err, want[i].Err) {
			t.Fatalf("item %d: batch %+v, single %+v", i, got[i], want[i])
		}
	}
	if err := batched.PlaceBatch("a", reqs, got[:3]); err == nil {
		t.Fatal("mismatched out length should error")
	}
}

// TestPoolPlaceBatchZeroAllocSteadyState pins the daemon's per-frame pool
// path: a warm tenant's batched placements (with admission checks on) and
// releases allocate nothing.
func TestPoolPlaceBatchZeroAllocSteadyState(t *testing.T) {
	p := newTestPool(t, 4, false)
	if err := p.SetAdmission(Admission{MaxLive: 1 << 20, Rate: 1e9}); err != nil {
		t.Fatal(err)
	}
	const batch = 16
	reqs := make([]PlaceRequest, batch)
	out := make([]PlaceResult, batch)
	clock := 0.0
	fill := func() {
		for i := range reqs {
			clock++
			reqs[i] = PlaceRequest{Iv: iv(clock, clock+40), Demand: 1}
		}
	}
	// Warm-up: reach the rolling-horizon steady state (window sized, heaps
	// grown, machines opened).
	for i := 0; i < 200; i++ {
		fill()
		if err := p.PlaceBatch("bench", reqs, out); err != nil {
			t.Fatal(err)
		}
		for _, r := range out {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		if _, err := p.Release("bench", out[0].Job); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(300, func() {
		fill()
		if err := p.PlaceBatch("bench", reqs, out); err != nil {
			t.Fatal(err)
		}
		p.Release("bench", out[0].Job)
	})
	if allocs != 0 {
		t.Fatalf("warm PlaceBatch+Release allocates %v/op, want 0", allocs)
	}
}
