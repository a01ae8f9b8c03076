package busytime

import (
	"context"
	"fmt"

	"busytime/internal/algo"
	"busytime/internal/algo/boundedlength"
	"busytime/internal/algo/exact"
	"busytime/internal/core"
	"busytime/internal/decomp"
	"busytime/internal/online"

	// Every algorithm package registers itself in init; the facade imports
	// the full set so any registered name is reachable through
	// WithAlgorithm from a pure public consumer. (boundedlength, exact,
	// online and portfolio are real imports above / in busytime.go.)
	_ "busytime/internal/algo/baselines"
	_ "busytime/internal/algo/cliquealgo"
	_ "busytime/internal/algo/firstfit"
	_ "busytime/internal/algo/laminar"
	_ "busytime/internal/algo/properfit"
)

// Solver is a scheduling session: an algorithm selected by name from the
// registry plus the state that makes repeated solving fast — a pool of
// recycled schedule arenas (core.Scratch), one per configured worker, so a
// warm Solver's Solve calls allocate no steady-state schedule state.
// Construct one with New, then reuse it: Solve for single instances,
// SolveBatch/SolveStream for parallel bulk runs (each item runs through
// Solve on one of the same arenas), Online for incremental arrival-order
// sessions.
//
// A Solver is safe for concurrent use. Up to WithWorkers arenas exist; a
// Solve call beyond that waits (honoring its context) for an arena to free.
// Note that concurrency tightens the arena-mode Result lifetime: a
// Result's Schedule (and Detach) must be consumed before any goroutine's
// next Solve can lease the same arena — concurrent pipelines that retain
// schedules should use WithFreshSchedules.
//
// Cancellation is cooperative: every entry point takes a context, batch runs
// observe it per instance and per shard, and the mid-run-cancellable
// algorithms (see Algorithms; currently the exact branch-and-bound) also
// checkpoint it inside a single run, so cancelling returns promptly with the
// context's error even from an exponential search.
type Solver struct {
	cfg    config
	alg    algo.Algorithm
	policy online.Policy // non-nil exactly for the online-* algorithms
	pool   chan *core.Scratch
	// decomp is the session's resolved decomposition contract (nil unless
	// WithIntraWorkers enabled the layer and the algorithm declares one) and
	// runners the recycled decomposition state, one Runner per worker.
	decomp  *algo.Decomposer
	runners chan *decomp.Runner
}

// New builds a Solver from functional options, validating the configuration
// (unknown algorithm names, cross-option mismatches) eagerly so every later
// Solve starts with a known-good session. The zero-option default is the
// paper's FirstFit with GOMAXPROCS workers, no verification, arena-backed
// results.
func New(opts ...Option) (*Solver, error) {
	cfg := config{algorithm: "firstfit", lookahead: 1}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	a, ok := algo.Lookup(cfg.algorithm)
	if !ok {
		return nil, fmt.Errorf("busytime: unknown algorithm %q (registered: %s)", cfg.algorithm, algorithmNames())
	}
	s := &Solver{cfg: cfg, alg: a}
	for _, p := range online.Policies() {
		if p.Name() == cfg.algorithm {
			s.policy = p
			break
		}
	}
	if cfg.lookahead > 1 && s.policy == nil {
		return nil, fmt.Errorf("busytime: WithLookahead applies to the online-* algorithms, not %q", cfg.algorithm)
	}
	if cfg.exactLimit != 0 && cfg.algorithm != "exact" {
		return nil, fmt.Errorf("busytime: WithExactLimit applies to \"exact\", not %q", cfg.algorithm)
	}
	if cfg.lengthD != 0 && cfg.algorithm != "boundedlength" {
		return nil, fmt.Errorf("busytime: WithLengthBound applies to \"boundedlength\", not %q", cfg.algorithm)
	}
	// Machine-independent check: auto (-1) or an explicit cap ≥ 2 asked for
	// the layer, whatever the worker budget resolves to on this host.
	if (cfg.intra < 0 || cfg.intra > 1) && cfg.fresh {
		return nil, fmt.Errorf("busytime: WithIntraWorkers needs the recycled arena pool; drop WithFreshSchedules")
	}
	if (cfg.shards < 0 || cfg.shards > 1) && cfg.fresh {
		return nil, fmt.Errorf("busytime: WithTimeSharding needs the recycled arena pool; drop WithFreshSchedules")
	}
	if !cfg.fresh {
		s.pool = core.NewScratchPool(cfg.maxWorkers())
	}
	if cfg.intraWorkers() > 1 || cfg.timeShards() > 1 {
		if d := s.decomposer(); d != nil {
			s.decomp = d
			s.runners = decomp.NewRunnerPool(cfg.maxWorkers())
		}
	}
	return s, nil
}

// decomposer resolves the session's decomposition contract: the registered
// Decomposer for most algorithms, the exact solver's rebuilt with the
// session's WithExactLimit, and nil for lookahead replays (the shared buffer
// spans components).
func (s *Solver) decomposer() *algo.Decomposer {
	switch {
	case s.cfg.algorithm == "exact":
		return exact.Decomposer(s.exactLimit())
	case s.cfg.lookahead > 1:
		return nil
	default:
		return s.alg.Decompose
	}
}

// Algorithm returns the session's registered algorithm name.
func (s *Solver) Algorithm() string { return s.cfg.algorithm }

// Solve schedules one instance and returns the summary Result. The instance
// is validated first (no panics on bad input); ctx cancellation is honored
// while waiting for an arena and, for mid-run-cancellable algorithms, inside
// the run itself. In the default arena mode the Result's Schedule lives in
// recycled memory — see Result.Detach and WithFreshSchedules.
func (s *Solver) Solve(ctx context.Context, in *Instance) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if in == nil {
		return Result{}, fmt.Errorf("busytime: Solve of a nil instance")
	}
	if err := in.CachedValidate(); err != nil {
		return Result{}, err
	}
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}
	if s.cfg.fresh {
		sched, err := s.run(ctx, in, nil)
		if err != nil {
			return Result{}, err
		}
		return s.summarize(in, sched, ArenaStats{})
	}
	sc, err := s.acquire(ctx)
	if err != nil {
		return Result{}, err
	}
	// The arena is held until the Result is fully extracted: a concurrent
	// Solve must not recycle this schedule while its cost and machine count
	// are still being read. After return, the Result's Schedule stays
	// arena-backed — see Result.Detach for the retention contract.
	defer s.release(sc)
	before := sc.Stats()
	sched, dstats, err := s.solveOn(ctx, in, sc)
	if err != nil {
		return Result{}, err
	}
	res, err := s.summarize(in, sched, ArenaStats{
		Warm:        before.Schedules > 0,
		SetupAllocs: sc.Stats().SetupAllocs - before.SetupAllocs,
	})
	if err != nil {
		return Result{}, err
	}
	res.Decomp = dstats
	return res, nil
}

// solveOn schedules one instance on the leased arena, offering it to the
// decomposition layer first when the session enables one. A declined offer
// (single component, no spare arena idle) falls through to the ordinary
// sequential dispatch; the schedule is identical either way.
func (s *Solver) solveOn(ctx context.Context, in *Instance, sc *core.Scratch) (*core.Schedule, DecompStats, error) {
	if s.decomp == nil {
		sched, err := s.run(ctx, in, sc)
		return sched, DecompStats{}, err
	}
	r := <-s.runners
	// Deferred, so a panicking run cannot leak the runner: SolveBatch
	// recovers panics and keeps using this Solver.
	defer func() { s.runners <- r }()
	sched, st, err := r.Solve(ctx, in, s.decomp, sc, s.pool, s.cfg.intraWorkers(), s.cfg.timeShards())
	// Converted under the lease: the stats buffer rides the runner (r.Pub)
	// and the per-component slices are runner-owned.
	dstats := newDecompStatsInto(st, &r.Pub)
	if err != nil {
		return nil, dstats, fmt.Errorf("busytime: %s: %w", s.cfg.algorithm, err)
	}
	if sched != nil {
		return sched, dstats, nil
	}
	sched, err = s.run(ctx, in, sc)
	return sched, dstats, err
}

// summarize verifies (when configured) and folds one schedule into a Result.
func (s *Solver) summarize(in *Instance, sched *core.Schedule, arena ArenaStats) (Result, error) {
	if s.cfg.verify {
		if err := sched.Verify(); err != nil {
			return Result{}, fmt.Errorf("busytime: %s produced infeasible schedule: %w", s.cfg.algorithm, err)
		}
	}
	return Result{
		Algorithm: s.cfg.algorithm,
		Schedule:  sched,
		Machines:  sched.NumMachines(),
		Cost:      sched.Cost(),
		Bounds:    in.CachedBounds(),
		Arena:     arena,
	}, nil
}

// run dispatches one instance to the session's algorithm; sc == nil selects
// the fresh-memory path. The exact solver and the lookahead replays route
// around the registry to carry their extra configuration (component limit,
// buffer size, segment bound); everything else goes through its registered
// scratch entry point with panics converted to errors.
func (s *Solver) run(ctx context.Context, in *Instance, sc *core.Scratch) (*core.Schedule, error) {
	switch {
	case s.cfg.algorithm == "exact":
		return exact.SolveWith(ctx, in, s.exactLimit(), sc)
	case s.cfg.lookahead > 1:
		if sc != nil {
			return online.RunLookaheadScratch(in, sc, s.cfg.lookahead, s.policy)
		}
		return online.RunLookahead(in, s.cfg.lookahead, s.policy)
	case s.cfg.algorithm == "boundedlength" && s.cfg.lengthD != 0:
		if sc != nil {
			return boundedlength.ScheduleScratch(in, boundedlength.Options{D: s.cfg.lengthD}, sc)
		}
		return boundedlength.Schedule(in, boundedlength.Options{D: s.cfg.lengthD})
	case s.alg.RunScratchCtx != nil && sc != nil:
		return s.alg.RunScratchCtx(ctx, in, sc)
	default:
		return safeRun(s.alg, in, sc)
	}
}

// exactLimit resolves the configured component limit of the exact search.
func (s *Solver) exactLimit() int {
	if s.cfg.exactLimit > 0 {
		return s.cfg.exactLimit
	}
	return exact.DefaultMaxJobs
}

// safeRun invokes the registered entry point converting panics — the legacy
// error channel of the registry's Run signature (class preconditions like
// "not a clique", component limits) — into errors. Recovered error values
// stay wrapped so errors.Is/As keep working across the facade.
func safeRun(a algo.Algorithm, in *core.Instance, sc *core.Scratch) (sched *core.Schedule, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case error:
			err = fmt.Errorf("busytime: %s: %w", a.Name, r)
		default:
			err = fmt.Errorf("busytime: %s: %v", a.Name, r)
		}
	}()
	if sc != nil && a.RunScratch != nil {
		return a.RunScratch(in, sc), nil
	}
	return a.Run(in), nil
}

// acquire leases an arena from the session pool, honoring ctx while waiting
// for one of the WithWorkers arenas to free.
func (s *Solver) acquire(ctx context.Context) (*core.Scratch, error) {
	select {
	case sc := <-s.pool:
		return sc, nil
	default:
	}
	select {
	case sc := <-s.pool:
		return sc, nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func (s *Solver) release(sc *core.Scratch) { s.pool <- sc }
