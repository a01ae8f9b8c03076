package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"testing"

	"busytime/internal/core"
)

// TestRegistryHasBuiltins pins the shipped scenario set.
func TestRegistryHasBuiltins(t *testing.T) {
	for _, name := range []string{"general", "proper", "clique", "bounded",
		"poisson", "diurnal", "burst", "clustered", "waves", "lightpath", "ring"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("scenario %q not registered", name)
		}
	}
	if got := len(Names()); got < 11 {
		t.Errorf("only %d scenarios registered", got)
	}
}

// TestGenerateDeterministicAcrossWorkers is the parallel-generation
// contract: the instance depends on (scenario, params) alone, never on the
// worker count — chunk i always draws from xrand.Shard(seed, i), whatever
// goroutine runs it.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal"} {
		sc, _ := Lookup(name)
		base, err := sc.Instance(Params{Seed: 9, N: 3000, Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{2, 3, 8, 64} {
			in, err := sc.Instance(Params{Seed: 9, N: 3000, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if in.N() != base.N() {
				t.Fatalf("%s workers=%d: %d jobs vs %d at workers=1", name, workers, in.N(), base.N())
			}
			for i := range in.Jobs {
				if in.Jobs[i] != base.Jobs[i] {
					t.Fatalf("%s workers=%d: job %d differs: %+v vs %+v",
						name, workers, i, in.Jobs[i], base.Jobs[i])
				}
			}
		}
	}
}

// TestGenerateSeedSensitivity checks different seeds give different traces.
func TestGenerateSeedSensitivity(t *testing.T) {
	sc, _ := Lookup("diurnal")
	a, err := sc.Instance(Params{Seed: 1, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Instance(Params{Seed: 2, N: 500})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() == b.N() {
		same := true
		for i := range a.Jobs {
			if a.Jobs[i].Iv != b.Jobs[i].Iv {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 generated the identical trace")
		}
	}
}

// TestEveryFamilyGeneratesValid sweeps the registry at a small scale: merged
// defaults, a couple of seeds, instances must validate (Instance checks) and
// be non-trivial.
func TestEveryFamilyGeneratesValid(t *testing.T) {
	for _, sc := range All() {
		for seed := int64(1); seed <= 2; seed++ {
			in, err := sc.Instance(Params{Seed: seed, N: 200})
			if err != nil {
				t.Fatalf("%s seed=%d: %v", sc.Name, seed, err)
			}
			if in.N() == 0 {
				t.Errorf("%s seed=%d: empty instance", sc.Name, seed)
			}
			if in.G < 1 {
				t.Errorf("%s seed=%d: g=%d", sc.Name, seed, in.G)
			}
		}
	}
}

// TestStochasticFamiliesHitTargetCount checks N is hit in expectation: a
// ±40% band at N=4000 is ≈ 25 standard deviations for a Poisson count.
func TestStochasticFamiliesHitTargetCount(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal"} {
		sc, _ := Lookup(name)
		in, err := sc.Instance(Params{Seed: 3, N: 4000})
		if err != nil {
			t.Fatal(err)
		}
		if in.N() < 2400 || in.N() > 5600 {
			t.Errorf("%s: %d jobs, want ≈ 4000", name, in.N())
		}
	}
}

// TestMaxDemandOverlay checks the demand overlay stays within [1, min(max, g)].
func TestMaxDemandOverlay(t *testing.T) {
	sc, _ := Lookup("poisson")
	in, err := sc.Instance(Params{Seed: 4, N: 1000, G: 4, MaxDemand: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, j := range in.Jobs {
		if j.Demand < 1 || j.Demand > 3 {
			t.Fatalf("demand %d outside [1,3]", j.Demand)
		}
		seen[j.Demand] = true
	}
	if len(seen) < 2 {
		t.Error("MaxDemand=3 produced a single demand value everywhere")
	}
}

// TestFromCSV round-trips an external trace through the scenario wrapper.
func TestFromCSV(t *testing.T) {
	dir := t.TempDir()
	read := func(src string) (*core.Instance, error) {
		path := filepath.Join(dir, "trace.csv")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return FromCSV(path).Instance(Params{G: 1})
	}
	in, err := read("#g,3\nid,start,end,demand\n0,0,2,1\n1,1,4,2\n")
	if err != nil {
		t.Fatal(err)
	}
	if in.G != 3 || in.N() != 2 {
		t.Fatalf("got g=%d n=%d", in.G, in.N())
	}
	if _, err := read("id,start,end\n0,NaN,1\n"); err == nil {
		t.Fatal("NaN trace accepted")
	}
}

// TestParseModes pins the mode grammar.
func TestParseModes(t *testing.T) {
	m, err := ParseModes("offline,online,wire")
	if err != nil || m != ModeOffline|ModeOnline|ModeWire {
		t.Fatalf("ParseModes = %v, %v", m, err)
	}
	if _, err := ParseModes("offline,bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if _, err := ParseModes(""); err == nil {
		t.Fatal("empty mode list accepted")
	}
}

// TestRegisterPanics pins the registry's duplicate and shape guards.
func TestRegisterPanics(t *testing.T) {
	stub := func(p Params) (*core.Instance, error) { return nil, nil }
	for _, sc := range []Scenario{
		{},
		{Name: "diurnal", Generate: stub},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Register(%q) did not panic", sc.Name)
				}
			}()
			Register(sc)
		}()
	}
}

// TestInstanceRejectsBadParams checks every registered family against each
// out-of-range param: a negative count, or a negative or non-finite length,
// is an error from Instance, never a panic inside a generator.
func TestInstanceRejectsBadParams(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []struct {
		name string
		p    Params
	}{
		{"N=-5", Params{N: -5}},
		{"G=-1", Params{G: -1}},
		{"MaxDemand=-1", Params{MaxDemand: -1}},
		{"Workers=-1", Params{Workers: -1}},
		{"Horizon=-1", Params{Horizon: -1}},
		{"Horizon=NaN", Params{Horizon: nan}},
		{"Horizon=+Inf", Params{Horizon: inf}},
		{"Horizon=-Inf", Params{Horizon: -inf}},
		{"MeanLen=-1", Params{MeanLen: -1}},
		{"MeanLen=NaN", Params{MeanLen: nan}},
		{"MeanLen=+Inf", Params{MeanLen: inf}},
	}
	for _, sc := range All() {
		for _, c := range bad {
			t.Run(sc.Name+"/"+c.name, func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("panicked: %v", r)
					}
				}()
				if _, err := sc.Instance(c.p); err == nil {
					t.Fatal("accepted")
				}
			})
		}
	}
}

// TestPoissonDeterministicAndPlausible checks the poisson family is an
// arrival process: deterministic in the seed, about N arrivals, sorted
// starts, and mean length about MeanLen.
func TestPoissonDeterministicAndPlausible(t *testing.T) {
	sc, _ := Lookup("poisson")
	p := Params{Seed: 7, N: 200, G: 4, Horizon: 100, MeanLen: 3}
	a, err := sc.Instance(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Instance(p)
	if err != nil {
		t.Fatal(err)
	}
	if instanceHash(a) != instanceHash(b) {
		t.Fatal("same seed, different instance")
	}
	if a.N() < 120 || a.N() > 300 {
		t.Errorf("n = %d, expected ≈ 200", a.N())
	}
	var sum float64
	for i, j := range a.Jobs {
		if i > 0 && j.Iv.Start < a.Jobs[i-1].Iv.Start {
			t.Fatal("arrivals not time-ordered")
		}
		sum += j.Len()
	}
	if mean := sum / float64(a.N()); mean < 2 || mean > 4.5 {
		t.Errorf("mean length %v, expected ≈ 3", mean)
	}
}

// TestDiurnalPattern checks the diurnal family's day/night swing: more
// arrivals around midday than around midnight.
func TestDiurnalPattern(t *testing.T) {
	sc, _ := Lookup("diurnal")
	in, err := sc.Instance(Params{Seed: 3, N: 2000, Horizon: 480})
	if err != nil {
		t.Fatal(err)
	}
	night, day := 0, 0
	for _, j := range in.Jobs {
		h := math.Mod(j.Iv.Start, 24)
		switch {
		case h >= 9 && h < 15:
			day++
		case h < 3 || h >= 21:
			night++
		}
	}
	if day <= night {
		t.Errorf("diurnal pattern inverted: day=%d night=%d", day, night)
	}
}

// TestGeneratedTracesScheduleCleanly round-trips the arrival families
// through the CSV codec that external trace files use.
func TestGeneratedTracesScheduleCleanly(t *testing.T) {
	for _, name := range []string{"poisson", "diurnal"} {
		sc, _ := Lookup(name)
		in, err := sc.Instance(Params{Seed: 11, N: 150, G: 3})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := core.WriteInstanceCSV(&buf, in); err != nil {
			t.Fatal(err)
		}
		rt, err := core.ReadInstanceCSV(&buf, in.G)
		if err != nil {
			t.Fatal(err)
		}
		if rt.N() != in.N() {
			t.Errorf("%s: CSV round trip lost jobs", in.Name)
		}
	}
}

// instanceHash is the sha256 of an instance's G, Name, and each job's ID,
// endpoint bits and demand.
func instanceHash(in *core.Instance) string {
	b := binary.LittleEndian.AppendUint64(nil, uint64(in.G))
	b = append(b, in.Name...)
	for _, j := range in.Jobs {
		b = binary.LittleEndian.AppendUint64(b, uint64(j.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.Iv.Start))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(j.Iv.End))
		b = binary.LittleEndian.AppendUint64(b, uint64(j.Demand))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestBenchmarkInputsPinned pins, bit for bit, the four scenario inputs
// the benchmark ledger generates (bench/offline.go, bench/online.go), so a
// change to the workload layer cannot silently change what the benchmark
// measures.
func TestBenchmarkInputsPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		n    int
		hash string
	}{
		{"poisson", Params{Seed: 1, N: 100000, G: 4, Horizon: 240, MeanLen: 3}, 99690,
			"0eee64c0aa157df77c140d9555bb93aaf952f9e65e3e2acd69cc2a24665fc094"},
		{"clustered", Params{Seed: 1, N: 50000, G: 3}, 50004,
			"4c7c435350547fa7a42400a0ec60de3056789b35f3a0f4f494a9cc3d54375da6"},
		{"lightpath", Params{Seed: 1, N: 17000, G: 16, Horizon: 64}, 17000,
			"7d45a5e666b369d01a82bf390d33342ef9e2b7278265ca43c317a2c3818ca8de"},
		{"diurnal", Params{Seed: 1, N: 1000000, G: 4, Horizon: 240, MeanLen: 3}, 999704,
			"f3f46d89b123c8b60221760cdbf8298d28b00d2b81356ce46eaa3414f156efe5"},
	} {
		sc, _ := Lookup(c.name)
		in, err := sc.Instance(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if in.N() != c.n {
			t.Errorf("%s: %d jobs, want %d", c.name, in.N(), c.n)
		}
		if got := instanceHash(in); got != c.hash {
			t.Errorf("%s: sha256 %s, want %s", c.name, got, c.hash)
		}
	}
}
