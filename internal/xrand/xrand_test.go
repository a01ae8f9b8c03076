package xrand

import (
	"math"
	"testing"
)

// TestDeterminism pins that the same seed replays the same stream — the
// contract every generator and test suite in the tree leans on.
func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

// TestDistinctSeeds checks that nearby seeds land in immediately different
// sequences (the splitmix64 finalizer avalanches the Weyl state).
func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws across seeds 1 and 2", same)
	}
}

// TestShardDeterministic pins Shard's contract: the derived stream depends
// on (seed, shard) alone, so any assignment of shards to workers reproduces
// identical output.
func TestShardDeterministic(t *testing.T) {
	for shard := 0; shard < 8; shard++ {
		a, b := Shard(7, shard), Shard(7, shard)
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				t.Fatalf("shard %d not deterministic at draw %d", shard, i)
			}
		}
	}
}

// TestShardIndependence checks that sibling shards (and the base New stream)
// produce pairwise different sequences: derived states are avalanche hashes,
// not offsets into one shared Weyl orbit, so shard streams never alias the
// way state+i*golden slices of a single sequence would.
func TestShardIndependence(t *testing.T) {
	const shards, draws = 16, 256
	streams := make([][]uint64, shards+1)
	base := New(99)
	streams[0] = make([]uint64, draws)
	for i := range streams[0] {
		streams[0][i] = base.Uint64()
	}
	for s := 0; s < shards; s++ {
		r := Shard(99, s)
		streams[s+1] = make([]uint64, draws)
		for i := range streams[s+1] {
			streams[s+1][i] = r.Uint64()
		}
	}
	for a := 0; a <= shards; a++ {
		for b := a + 1; b <= shards; b++ {
			same := 0
			for i := 0; i < draws; i++ {
				if streams[a][i] == streams[b][i] {
					same++
				}
			}
			if same > 0 {
				t.Fatalf("streams %d and %d agree on %d/%d draws", a, b, same, draws)
			}
		}
	}
}

// TestShardSeedSensitivity checks the same shard index under different seeds
// yields different streams.
func TestShardSeedSensitivity(t *testing.T) {
	a, b := Shard(1, 3), Shard(2, 3)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical draws for shard 3 of seeds 1 and 2", same)
	}
}

// TestFloat64Range pins Float64 into [0, 1) and sanity-checks the mean.
func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

// TestIntnBounds pins Intn into [0, n) and hits every residue of a small n.
func TestIntnBounds(t *testing.T) {
	r := New(11)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) hit only %d residues in 1000 draws", len(seen))
	}
}

// TestExpFloat64Positive pins the exponential sampler's support and mean.
func TestExpFloat64Positive(t *testing.T) {
	r := New(13)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("ExpFloat64 = %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("ExpFloat64 mean %v far from 1", mean)
	}
}

// TestIntnUniform checks Intn spreads evenly: each of 10 buckets gets its
// share of 200,000 draws within ±2,000 (about 15 standard deviations).
func TestIntnUniform(t *testing.T) {
	r := New(7)
	const n = 200000
	counts := make([]int, 10)
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for k, c := range counts {
		if c < n/10-2000 || c > n/10+2000 {
			t.Errorf("Intn bucket %d count %d far from uniform", k, c)
		}
	}
}

// TestIntnPanicsOnNonPositive pins Intn's documented panic for n ≤ 0.
func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}
