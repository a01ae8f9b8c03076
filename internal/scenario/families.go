package scenario

import (
	"fmt"
	"math"
	"os"

	"busytime/internal/core"
	"busytime/internal/generator"
	"busytime/internal/interval"
	"busytime/internal/optical"
	"busytime/internal/xrand"
)

func init() {
	// The paper's instance classes, one per guarantee: general (Thm 2.1),
	// proper (Thm 3.1), clique (Thm A.1) and bounded lengths (Thm 3.2).
	// Lengths are drawn so their mean is MeanLen.
	Register(Scenario{
		Name:        "general",
		Description: "general instances (Thm 2.1): uniform starts, lengths uniform in (0, 2·MeanLen]",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 100, MeanLen: 10},
		Generate: func(p Params) (*core.Instance, error) {
			return generator.General(p.Seed, p.N, p.G, p.Horizon, 2*p.MeanLen), nil
		},
	})
	Register(Scenario{
		Name:        "proper",
		Description: "proper instances (Thm 3.1): no job contains another, lengths ≈ uniform in (0, 2·MeanLen]",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 100, MeanLen: 10},
		Generate: func(p Params) (*core.Instance, error) {
			return generator.Proper(p.Seed, p.N, p.G, p.Horizon, 2*p.MeanLen), nil
		},
	})
	Register(Scenario{
		Name:        "clique",
		Description: "clique instances (Thm A.1): every job contains Horizon/2, reaching up to MeanLen each side",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 100, MeanLen: 20},
		Generate: func(p Params) (*core.Instance, error) {
			return generator.Clique(p.Seed, p.N, p.G, p.Horizon/2, p.MeanLen), nil
		},
	})
	Register(Scenario{
		Name:        "bounded",
		Description: "bounded lengths (Thm 3.2): integral starts, lengths in [1, d] for d = 2·MeanLen−1",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 100, MeanLen: 2.5},
		Generate: func(p Params) (*core.Instance, error) {
			d := 2*p.MeanLen - 1
			if d < 1 {
				return nil, fmt.Errorf("bounded needs MeanLen ≥ 1, got %v", p.MeanLen)
			}
			return generator.BoundedLength(p.Seed, p.N, p.G, max(int(p.Horizon/d), 1), d), nil
		},
	})
	Register(Scenario{
		Name:        "poisson",
		Description: "homogeneous Poisson arrivals, exponential durations (≈N jobs in expectation)",
		Defaults:    Params{Seed: 1, N: 2000, G: 4, Horizon: 240, MeanLen: 3},
		Generate:    genPoisson,
	})
	Register(Scenario{
		Name:        "diurnal",
		Description: "cloud VM trace: day/night sinusoidal arrival rate via thinning, early-departure mix",
		Defaults:    Params{Seed: 1, N: 2000, G: 4, Horizon: 240, MeanLen: 3},
		Generate:    genDiurnal,
	})
	Register(Scenario{
		Name:        "burst",
		Description: "CloudBurst family: baseline Poisson plus correlated arrival bursts",
		Defaults:    Params{Seed: 1, N: 2000, G: 6, Horizon: 300, MeanLen: 8},
		Generate: func(p Params) (*core.Instance, error) {
			in := generator.CloudBurst(p.Seed, p.N, p.G, p.Horizon, p.MeanLen, 1+p.N/200, 0.5)
			demands(p.Seed, p.MaxDemand, p.G, in.Jobs)
			return in, nil
		},
	})
	Register(Scenario{
		Name:        "clustered",
		Description: "clustered family: disjoint time clusters of overlapping jobs",
		Defaults:    Params{Seed: 1, N: 2000, G: 3, MeanLen: 6},
		Generate: func(p Params) (*core.Instance, error) {
			per := 12
			clusters := (p.N + per - 1) / per
			if clusters < 1 {
				clusters = 1
			}
			in := generator.Clustered(p.Seed, clusters, per, p.G, 1.5*p.MeanLen, p.MeanLen)
			demands(p.Seed, p.MaxDemand, p.G, in.Jobs)
			return in, nil
		},
	})
	Register(Scenario{
		Name:        "waves",
		Description: "LightpathWave family: periodic provisioning waves of near-simultaneous requests",
		Defaults:    Params{Seed: 1, N: 2000, G: 4, Horizon: 400, MeanLen: 12},
		Generate: func(p Params) (*core.Instance, error) {
			perWave := 25
			waves := (p.N + perWave - 1) / perWave
			if waves < 1 {
				waves = 1
			}
			period := p.Horizon / float64(waves)
			in := generator.LightpathWave(p.Seed, waves, perWave, p.G, period, period/3, p.MeanLen)
			demands(p.Seed, p.MaxDemand, p.G, in.Jobs)
			return in, nil
		},
	})
	Register(Scenario{
		Name:        "lightpath",
		Description: "optical path network: random lightpaths under grooming factor g (§4.2 reduction, exact)",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 64},
		Generate: func(p Params) (*core.Instance, error) {
			net := lightpathNet(p)
			return net.ToInstance(), nil
		},
		Check: checkLightpath,
	})
	Register(Scenario{
		Name:        "ring",
		Description: "optical ring (SONET): random arcs cut-and-unrolled onto the line; native coloring cross-checked",
		Defaults:    Params{Seed: 1, N: 1000, G: 4, Horizon: 32},
		Generate: func(p Params) (*core.Instance, error) {
			return ringInstance(p, ringNet(p)), nil
		},
		Check: checkRing,
	})
}

// genPoisson is the homogeneous arrival process, chunked over the time axis:
// by memorylessness a rate-λ process restricted to [t0, t1) is itself a
// rate-λ process started at t0, so per-chunk generation with independent
// streams is distribution-exact. The rate is N/Horizon, hitting N jobs in
// expectation.
func genPoisson(p Params) (*core.Instance, error) {
	rate := float64(p.N) / p.Horizon
	jobs := parallelTime(p.Seed, p.Workers, p.Horizon, func(r *xrand.RNG, t0, t1 float64, emit func(core.Job)) {
		t := t0 + r.ExpFloat64()/rate
		for t < t1 {
			emit(core.Job{Iv: interval.New(t, t+r.ExpFloat64()*p.MeanLen), Demand: 1})
			t += r.ExpFloat64() / rate
		}
	})
	demands(p.Seed, p.MaxDemand, p.G, jobs)
	return &core.Instance{
		Name: fmt.Sprintf("poisson(seed=%d,n=%d)", p.Seed, p.N),
		G:    p.G,
		Jobs: jobs,
	}, nil
}

// genDiurnal is the cloud VM trace: a non-homogeneous Poisson process whose
// rate swings sinusoidally between 20% (night) and 180% (midday) of the
// mean, realized by thinning a homogeneous process at the peak rate. The
// thinning acceptance at time t depends only on t and the chunk's own
// stream, so chunked generation stays distribution-exact.
func genDiurnal(p Params) (*core.Instance, error) {
	meanRate := float64(p.N) / p.Horizon
	base, peak := 0.2*meanRate, 1.8*meanRate
	rate := func(t float64) float64 {
		phase := 0.5 - 0.5*math.Cos(2*math.Pi*math.Mod(t, 24)/24)
		return base + (peak-base)*phase
	}
	jobs := parallelTime(p.Seed, p.Workers, p.Horizon, func(r *xrand.RNG, t0, t1 float64, emit func(core.Job)) {
		t := t0 + r.ExpFloat64()/peak
		for t < t1 {
			if r.Float64() <= rate(t)/peak {
				emit(core.Job{Iv: interval.New(t, t+r.ExpFloat64()*p.MeanLen), Demand: 1})
			}
			t += r.ExpFloat64() / peak
		}
	})
	demands(p.Seed, p.MaxDemand, p.G, jobs)
	return &core.Instance{
		Name: fmt.Sprintf("diurnal(seed=%d,n=%d)", p.Seed, p.N),
		G:    p.G,
		Jobs: jobs,
	}, nil
}

// lightpathNet builds the path-topology traffic of the "lightpath"
// scenario; Horizon is the node count.
func lightpathNet(p Params) *optical.Network {
	nodes := int(p.Horizon)
	if nodes < 2 {
		nodes = 2
	}
	return optical.RandomTraffic(p.Seed, nodes, p.N, nodes-1, p.G)
}

// checkLightpath rebuilds the wavelength coloring from the offline schedule
// and asserts the paper's exact correspondence: with half-integer job
// endpoints from the §4.2 reduction, total busy time IS the regenerator
// count, so the two must agree to the last ulp. The driver calls Check with
// the already-merged Params, so this regenerates the identical traffic.
func checkLightpath(p Params, in *core.Instance, s *core.Schedule) ([]Metric, error) {
	net := lightpathNet(p)
	col, err := optical.FromSchedule(net, s)
	if err != nil {
		return nil, err
	}
	if err := col.Validate(); err != nil {
		return nil, err
	}
	regen := float64(col.Regenerators())
	if math.Abs(regen-s.Cost()) > 1e-6 {
		return nil, fmt.Errorf("lightpath: %v regenerators but busy time %v (must be equal)", regen, s.Cost())
	}
	return []Metric{
		{Name: "wavelengths", Value: float64(col.Wavelengths())},
		{Name: "regenerators", Value: regen},
		{Name: "adms", Value: float64(col.ADMs())},
	}, nil
}

// ringNet builds the ring traffic of the "ring" scenario; Horizon is the
// ring size (node count).
func ringNet(p Params) *optical.RingNetwork {
	nodes := int(p.Horizon)
	if nodes < 3 {
		nodes = 3
	}
	return optical.RandomRingTraffic(p.Seed, nodes, p.N, nodes-1, p.G)
}

// ringInstance cuts the ring at its least-loaded edge and unrolls every arc
// onto the universal cover: an arc that does not cross the cut becomes the
// usual [a′+½, b′−½] job in cut-relative coordinates, one that does
// continues past l to [a′+½, l+b′−½]. Cover overlap implies sharing a ring
// edge but not conversely (cover positions e and e+l alias the same ring
// edge), so the cover instance is a relaxation: every valid ring coloring
// induces a feasible cover schedule, and the cover machine count lower-bounds
// the wavelengths any coloring of this traffic needs. The schedule itself is
// not a ring coloring; the scenario's Check runs the exact group-aware
// construction (optical.ColorRing) for the deployable answer and reports
// both sides.
func ringInstance(p Params, net *optical.RingNetwork) *core.Instance {
	cut := net.BestCut()
	l := net.Nodes
	in := &core.Instance{
		Name: fmt.Sprintf("ring(seed=%d,n=%d,cut=%d)", p.Seed, p.N, cut),
		G:    net.G,
		Jobs: make([]core.Job, len(net.Arcs)),
	}
	for i, arc := range net.Arcs {
		// Cut-relative node positions: the cut edge sits between position
		// l-1 and l (i.e. node cut is position l-1... the cut edge is edge
		// `cut`, from node cut to cut+1, so position 0 is node cut+1).
		a := ((arc.A-cut-1)%l + l) % l
		b := ((arc.B-cut-1)%l + l) % l
		if b <= a { // crosses the cut edge: unroll onto the cover
			b += l
		}
		in.Jobs[i] = core.Job{
			ID:     arc.ID,
			Iv:     interval.New(float64(a)+0.5, float64(b)-0.5),
			Demand: 1,
		}
	}
	demands(p.Seed, p.MaxDemand, net.G, in.Jobs)
	return in
}

// checkRing runs the exact group-aware ring construction (which validates
// its own coloring) and reports it next to the cover relaxation the solver
// just scheduled: cover machines lower-bound the wavelengths, so the pair
// brackets the traffic's true requirement. It fails if the native
// construction cannot color the traffic at all.
func checkRing(p Params, in *core.Instance, s *core.Schedule) ([]Metric, error) {
	native, err := ringNet(p).ColorRing(-1)
	if err != nil {
		return nil, fmt.Errorf("ring: native construction failed: %w", err)
	}
	return []Metric{
		{Name: "cover_machines", Value: float64(s.NumMachines())},
		{Name: "cover_busy", Value: s.Cost()},
		{Name: "native_wavelengths", Value: float64(native.Wavelengths())},
		{Name: "native_regenerators", Value: float64(native.Regenerators())},
	}, nil
}

// FromCSV wraps an external CSV trace file as an unregistered scenario so
// the driver replays it exactly like a built-in family. Params.G overrides
// a missing #g row; N, Horizon and MeanLen are ignored (the file is the
// workload).
func FromCSV(path string) Scenario {
	return Scenario{
		Name:        "csv:" + path,
		Description: "external CSV trace " + path,
		Defaults:    Params{G: 4},
		Generate: func(p Params) (*core.Instance, error) {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return core.ReadInstanceCSV(f, p.G)
		},
	}
}
