package parallel

import (
	"errors"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"busytime/internal/xrand"
)

func TestMapOrderPreserved(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapEmptyAndSingleWorker(t *testing.T) {
	if got := Map(0, 4, func(i int) int { return i }); got != nil {
		t.Error("n=0 should return nil")
	}
	got := Map(10, 1, func(i int) int { return i })
	for i, v := range got {
		if v != i {
			t.Fatal("sequential path broken")
		}
	}
}

func TestMapCallsEachIndexOnce(t *testing.T) {
	const n = 500
	var counts [n]atomic.Int32
	Map(n, 16, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d called %d times", i, c)
		}
	}
}

func TestMapParallelMatchesSequential(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		n := int(nn%64) + 1
		work := func(i int) float64 {
			r := xrand.New(seed + int64(i))
			return r.Float64()
		}
		seq := Map(n, 1, work)
		par := Map(n, 8, work)
		for i := range seq {
			if seq[i] != par[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMapErrPropagates(t *testing.T) {
	sentinel := errors.New("boom")
	_, err := MapErr(50, 4, func(i int) (int, error) {
		if i == 13 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
}

func TestMapErrStopsClaimingAfterFailure(t *testing.T) {
	var calls atomic.Int32
	_, err := MapErr(10000, 4, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		time.Sleep(time.Microsecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("error lost")
	}
	if c := calls.Load(); c > 5000 {
		t.Errorf("%d calls after early failure; cancellation ineffective", c)
	}
}

func TestMapErrSequentialShortCircuit(t *testing.T) {
	var calls int
	_, err := MapErr(100, 1, func(i int) (int, error) {
		calls++
		if i == 3 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil || calls != 4 {
		t.Errorf("calls = %d err = %v, want 4 calls and error", calls, err)
	}
}

func TestMapErrSuccess(t *testing.T) {
	got, err := MapErr(20, 4, func(i int) (int, error) { return i * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*2 {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestClampWorkers(t *testing.T) {
	if w := clampWorkers(0, 5); w < 1 || w > 5 {
		t.Errorf("default workers = %d", w)
	}
	if w := clampWorkers(100, 3); w != 3 {
		t.Errorf("workers should clamp to n: %d", w)
	}
}

func BenchmarkMapOverhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Map(64, 0, func(i int) int { return i })
	}
}
