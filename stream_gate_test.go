package busytime_test

// Rolling-horizon stream gates, run by CI with BUSYTIME_STREAM_GATE=1 and
// skipped everywhere else: wall-clock throughput ratios flake on loaded
// machines, and the structural properties they guard (zero-alloc steady
// state, window-bounded memory, oracle parity) are already pinned
// unconditionally by internal/online's test suite.

import (
	"os"
	"testing"
	"time"

	"busytime"
	"busytime/internal/generator"
	"busytime/internal/xrand"
)

// streamDriver feeds a pre-generated arrival stream through a public
// session, releasing roughly one in eight jobs early. When the stream
// wraps it shifts the clock past the last start, so arrival order stays
// legal at any op count.
type streamDriver struct {
	sess  *busytime.OnlineSession
	jobs  []generator.StreamJob
	rng   *xrand.RNG
	live  int
	idx   int
	shift float64
}

func newStreamDriver(sess *busytime.OnlineSession, jobs []generator.StreamJob, seed int64, live int) *streamDriver {
	return &streamDriver{sess: sess, jobs: jobs, rng: xrand.New(seed), live: live}
}

// warmStreamDriver returns a driver over a FirstFit session (g = 8, demand
// ≤ 4) with about live jobs live, fed 16×live arrivals so its window, heaps
// and machines are at their steady size.
func warmStreamDriver(tb testing.TB, live int) *streamDriver {
	tb.Helper()
	s, err := busytime.New(busytime.WithWindow(live))
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := s.Online(8, "firstfit")
	if err != nil {
		tb.Fatal(err)
	}
	d := newStreamDriver(sess, generator.Stream(7, 1<<20, live, 4), 42, live)
	for i := 0; i < 16*live; i++ {
		if err := d.step(); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

func (d *streamDriver) step() error {
	j := d.jobs[d.idx]
	iv := busytime.Interval{Start: j.Iv.Start + d.shift, End: j.Iv.End + d.shift}
	if _, err := d.sess.PlaceDemand(iv, j.Demand); err != nil {
		return err
	}
	if d.rng.Uint64()&7 == 0 {
		target := d.sess.Jobs() - 1 - d.rng.Intn(d.live)
		if target < 0 {
			target = 0
		}
		// Already-departed targets report (false, nil); only real
		// bookkeeping errors surface.
		if _, err := d.sess.Release(target); err != nil {
			return err
		}
	}
	d.idx++
	if d.idx == len(d.jobs) {
		d.idx = 0
		d.shift += d.jobs[len(d.jobs)-1].Iv.Start + 1
	}
	return nil
}

// TestStreamThroughputNoDecay is the rolling-horizon throughput gate: over a
// one-million-job stream with ~1000 live jobs, the last 10% of arrivals must
// place at ≥ 0.9× the rate of the first 10%. If window compaction or the
// departure heap leaked work proportional to stream history — the O(total)
// behaviour the rolling horizon exists to remove — the tail rate would decay
// well below that line.
func TestStreamThroughputNoDecay(t *testing.T) {
	if os.Getenv("BUSYTIME_STREAM_GATE") == "" {
		t.Skip("set BUSYTIME_STREAM_GATE=1 (CI stream gate) to run wall-clock gates")
	}
	const n, live = 1_000_000, 1000
	s, err := busytime.New(busytime.WithWindow(live))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Online(8, "firstfit")
	if err != nil {
		t.Fatal(err)
	}
	d := newStreamDriver(sess, generator.Stream(3, n, live, 4), 99, live)
	segment := func(ops int) float64 {
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		return float64(ops) / time.Since(t0).Seconds()
	}
	const tenth = n / 10
	first := segment(tenth)
	for seg := 1; seg < 9; seg++ {
		segment(tenth)
	}
	last := segment(tenth)
	t.Logf("first 10%%: %.0f jobs/s, last 10%%: %.0f jobs/s (%.2fx)", first, last, last/first)
	if last < 0.9*first {
		t.Fatalf("throughput decayed: last 10%% ran at %.0f jobs/s vs %.0f in the first 10%% (%.2fx < 0.9x)",
			last, first, last/first)
	}
	st := sess.Stats()
	if st.Placed != n {
		t.Fatalf("placed %d, want %d", st.Placed, n)
	}
	if st.Compactions == 0 {
		t.Fatal("window never compacted over a 1e6-job stream")
	}
	if st.WindowCap > 32*live {
		t.Fatalf("window capacity %d not bounded by the live population (%d live target)", st.WindowCap, live)
	}
	if st.Ratio != 0 && st.Ratio < 1-1e-9 {
		t.Fatalf("competitive ratio %v < 1", st.Ratio)
	}
}

// TestStreamThroughputLiveScaling is the machine-index gate: FirstFit
// placement descends a tree over the open machines, so ten times the live
// population (~3k machines instead of ~300) must keep ≥ 0.35× the per-op
// rate. A per-placement scan over the machines falls to about 0.2×.
func TestStreamThroughputLiveScaling(t *testing.T) {
	if os.Getenv("BUSYTIME_STREAM_GATE") == "" {
		t.Skip("set BUSYTIME_STREAM_GATE=1 (CI stream gate) to run wall-clock gates")
	}
	const ops = 500_000
	rate := func(live int) float64 {
		d := warmStreamDriver(t, live)
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			if err := d.step(); err != nil {
				t.Fatal(err)
			}
		}
		r := ops / time.Since(t0).Seconds()
		t.Logf("live %d: %d machines, %.0f jobs/s", live, d.sess.Stats().Machines, r)
		return r
	}
	small, large := rate(1_000), rate(10_000)
	if large < 0.35*small {
		t.Fatalf("live 1e4 placed at %.0f jobs/s, %.2fx the %.0f jobs/s at live 1e3 (< 0.35x)",
			large, large/small, small)
	}
}
