// Package scenario is the workload-scenario engine: the one registry of
// named, seeded, parameterized instance families — the paper's instance
// classes (general, proper, clique, bounded lengths), cloud arrival traces,
// optical lightpath and ring traffic, the synthetic families of
// internal/generator, external CSV traces — with a uniform driver that
// replays any of them offline through the Solver, online through a
// rolling-horizon session, or over the wire against a running busyschedd,
// and emits one structured report per run: cost, bounds, gap and
// competitive ratio, per-phase latency percentiles, and a discrete-event
// billing cross-check asserting the simulated busy time equals the
// analytic cost.
//
// Generation is parallel and contention-free: stochastic families split the
// time axis into a fixed number of chunks, each owning its own splitmix64
// stream derived by xrand.Shard, so a million-job suite synthesizes across
// GOMAXPROCS workers with no shared RNG lock and the output is
// bit-reproducible at any parallelism.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"busytime/internal/core"
)

// Params is the knob set every scenario draws from. A scenario reads the
// knobs it understands and ignores the rest; zero fields fall back to the
// scenario's Defaults field by field.
type Params struct {
	// Seed drives every random choice; equal seeds replay equal workloads.
	Seed int64
	// N is the target job count (families reach it exactly or in
	// expectation, per their Description).
	N int
	// G is the parallelism parameter (grooming factor for the optical
	// families).
	G int
	// Horizon is the time span jobs arrive over, in the scenario's time
	// unit (hours for the cloud traces, ring positions for optical).
	Horizon float64
	// MeanLen is the mean job duration.
	MeanLen float64
	// MaxDemand, when > 1, draws per-job demands uniformly from
	// [1, MaxDemand]; otherwise every job has unit demand.
	MaxDemand int
	// Workers bounds generation parallelism; 0 means GOMAXPROCS.
	Workers int
}

// merged fills zero fields of p from d.
func (p Params) merged(d Params) Params {
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	if p.N == 0 {
		p.N = d.N
	}
	if p.G == 0 {
		p.G = d.G
	}
	if p.Horizon == 0 {
		p.Horizon = d.Horizon
	}
	if p.MeanLen == 0 {
		p.MeanLen = d.MeanLen
	}
	if p.MaxDemand == 0 {
		p.MaxDemand = d.MaxDemand
	}
	if p.Workers == 0 {
		p.Workers = d.Workers
	}
	return p
}

// check rejects merged params no family can honor: a negative count, or a
// negative or non-finite length. Zero fields have already been filled from
// the defaults, so it does not ask for N ≥ 1 (a CSV trace leaves N at 0).
func (p Params) check() error {
	badLen := func(v float64) bool { return !(v >= 0) || math.IsInf(v, 1) }
	switch {
	case p.N < 0:
		return fmt.Errorf("N = %d, want ≥ 0", p.N)
	case p.G < 0:
		return fmt.Errorf("G = %d, want ≥ 0", p.G)
	case p.MaxDemand < 0:
		return fmt.Errorf("MaxDemand = %d, want ≥ 0", p.MaxDemand)
	case p.Workers < 0:
		return fmt.Errorf("Workers = %d, want ≥ 0", p.Workers)
	case badLen(p.Horizon):
		return fmt.Errorf("Horizon = %v, want finite and ≥ 0", p.Horizon)
	case badLen(p.MeanLen):
		return fmt.Errorf("MeanLen = %v, want finite and ≥ 0", p.MeanLen)
	}
	return nil
}

// Metric is one named number a scenario's Check contributes to the report —
// ring-native wavelength counts, regenerator totals, and the like.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Scenario is one registered workload family.
type Scenario struct {
	// Name keys the registry ("diurnal", "ring", ...).
	Name string
	// Description is one line for listings.
	Description string
	// Defaults fills Params fields the caller leaves zero.
	Defaults Params
	// Generate synthesizes the instance. It must be deterministic in the
	// (merged) Params alone — including Workers: any worker count must
	// produce the identical instance.
	Generate func(p Params) (*core.Instance, error)
	// Check, when non-nil, runs scenario-specific cross-checks against the
	// offline schedule (e.g. the optical families rebuild a coloring and
	// compare regenerator counts to the busy time) and returns extra
	// metrics for the report.
	Check func(p Params, in *core.Instance, s *core.Schedule) ([]Metric, error)
}

// Instance merges p onto the scenario's defaults, checks the merged params
// and generates. A bad param is an error, never a panic.
func (sc Scenario) Instance(p Params) (*core.Instance, error) {
	m := p.merged(sc.Defaults)
	if sc.Generate == nil {
		return nil, fmt.Errorf("scenario %q has no generator", sc.Name)
	}
	if err := m.check(); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	in, err := sc.Generate(m)
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
	}
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %q generated an invalid instance: %w", sc.Name, err)
	}
	return in, nil
}

var (
	mu       sync.RWMutex
	registry = map[string]Scenario{}
)

// Register adds a scenario; re-registering a name panics, as with algorithms.
func Register(sc Scenario) {
	mu.Lock()
	defer mu.Unlock()
	if sc.Name == "" || sc.Generate == nil {
		panic("scenario: Register needs a name and a generator")
	}
	if _, dup := registry[sc.Name]; dup {
		panic("scenario: duplicate registration of " + sc.Name)
	}
	registry[sc.Name] = sc
}

// Lookup returns the named scenario.
func Lookup(name string) (Scenario, bool) {
	mu.RLock()
	defer mu.RUnlock()
	sc, ok := registry[name]
	return sc, ok
}

// All returns every registered scenario sorted by name.
func All() []Scenario {
	mu.RLock()
	defer mu.RUnlock()
	out := make([]Scenario, 0, len(registry))
	for _, sc := range registry {
		out = append(out, sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names returns the sorted registry names (for usage strings).
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, sc := range all {
		names[i] = sc.Name
	}
	return names
}
