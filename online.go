package busytime

import (
	"fmt"

	"busytime/internal/core"
	"busytime/internal/online"
)

// OnlineSession is the feed-one-job-at-a-time handle of the online problem:
// jobs are revealed at their start times (arrivals must come in
// non-decreasing start order) and each Place decision is immediate and
// irrevocable — the model the paper's offline length sort (§2.1) is not
// allowed to use. Obtain one from Solver.Online; it is not safe for
// concurrent use.
type OnlineSession struct {
	inner *online.Session
}

// Online opens an incremental session with parallelism g placing through
// the named arrival policy: "firstfit" (lowest feasible machine), "bestfit"
// (least busy-time growth), or "nextfit" (single open machine, abandoned on
// overflow) — the registered "online-" prefix is also accepted. The
// session's decisions are byte-identical to replaying the completed
// instance through the corresponding online-* algorithm.
//
// Batch replays of recorded arrival sequences are better served by a Solver
// with WithAlgorithm("online-..."), which rides the indexed placement
// kernel and the arena; a session exists for the genuinely incremental
// caller that does not have the future in hand. For the same reason a
// WithLookahead session is rejected: buffering k future arrivals requires
// the replay side (Solve), not an immediate-decision handle.
//
// Sessions run a rolling horizon: as the stream clock (the latest start fed
// to Place) moves past a job's end the job departs automatically, its
// capacity returns to the free pool, and its record is eventually compacted
// away, so a session's memory tracks the live window rather than the stream
// length. WithWindow pre-sizes that state; Release departs a job early.
func (s *Solver) Online(g int, policy string) (*OnlineSession, error) {
	rule, err := s.onlineRule(policy)
	if err != nil {
		return nil, err
	}
	inner, err := online.NewSessionSized(g, rule, s.cfg.window)
	if err != nil {
		return nil, err
	}
	return &OnlineSession{inner: inner}, nil
}

// onlineRule resolves a session policy name — a registered online-* name or
// its bare rule name — to its placement rule, rejecting configurations that
// cannot drive an immediate-decision handle.
func (s *Solver) onlineRule(policy string) (core.Rule, error) {
	if s.cfg.lookahead > 1 {
		return 0, fmt.Errorf("busytime: WithLookahead(%d) cannot drive an incremental session (decisions are immediate); replay the completed instance via Solve instead", s.cfg.lookahead)
	}
	rule, ok := online.RuleByName(policy)
	if !ok {
		rule, ok = online.RuleByName("online-" + policy)
	}
	if !ok {
		return 0, fmt.Errorf("busytime: unknown online policy %q (want firstfit, bestfit or nextfit)", policy)
	}
	return rule, nil
}

// Place feeds the next unit-demand arrival and returns the machine it was
// irrevocably assigned to. Arrivals must come in non-decreasing start
// order; violations are rejected without changing the session.
func (o *OnlineSession) Place(iv Interval) (int, error) {
	return o.inner.Place(iv, 1)
}

// PlaceDemand is Place for a job consuming demand machine slots while
// active (the demand extension; 1 ≤ demand ≤ g).
func (o *OnlineSession) PlaceDemand(iv Interval, demand int) (int, error) {
	return o.inner.Place(iv, demand)
}

// Release departs job (a feed index: the session's Jobs() at its Place)
// before its natural end: the job's effective interval is clipped at the
// current stream clock, the machine's busy span stops accruing there, and
// the slot returns to the free pool once the clock moves strictly past —
// under closed intervals the job still holds its slot at the release
// instant itself. It reports false for a job that already departed
// (released earlier, expired naturally, or compacted out of the retained
// window) and errors only for an index never handed out.
func (o *OnlineSession) Release(job int) (bool, error) { return o.inner.Release(job) }

// Jobs returns the number of arrivals placed so far.
func (o *OnlineSession) Jobs() int { return o.inner.Jobs() }

// Live returns the number of jobs currently holding capacity: placed, not
// released, and with ends at or past the stream clock.
func (o *OnlineSession) Live() int { return o.inner.Live() }

// Stats reports the session's counters, memory high-water marks and live
// competitive ratio without allocating.
func (o *OnlineSession) Stats() OnlineStats { return o.inner.Stats() }

// Machines returns the number of machines opened so far.
func (o *OnlineSession) Machines() int { return o.inner.Machines() }

// Cost returns the total busy time accrued so far, maintained incrementally
// (no sweep per call).
func (o *OnlineSession) Cost() float64 { return o.inner.Cost() }

// MachineOf returns the machine of the j-th arrival (feed order).
func (o *OnlineSession) MachineOf(j int) int { return o.inner.MachineOf(j) }

// Result materializes the retained window as a standard Result: a verified
// schedule in caller-owned memory over the records the rolling horizon still
// holds (live jobs plus recent departures awaiting reclaim), using effective
// intervals — an early release appears clipped at its release clock — with
// lower bounds computed against that window instance. Jobs already compacted
// away are absent, so on a long stream the Result covers the recent past,
// not the full history; Cost() and Stats() carry the stream-lifetime
// aggregates. The session remains usable; later arrivals do not invalidate
// the returned Result.
func (o *OnlineSession) Result() (Result, error) {
	sched, err := o.inner.Snapshot()
	if err != nil {
		return Result{}, err
	}
	in := sched.Instance()
	return Result{
		Algorithm: o.inner.Policy(),
		Schedule:  sched,
		Machines:  sched.NumMachines(),
		Cost:      sched.Cost(),
		Bounds:    in.CachedBounds(),
	}, nil
}

// OnlineStats is a session's telemetry snapshot: stream-lifetime counters,
// current and high-water state sizes, and the live competitive ratio. The
// lower bound is the exact fractional bound ∫⌈D_t/g⌉dt of the effective
// stream seen so far (early releases clipped at their release clock), with
// the live jobs projected to their natural ends, maintained incrementally;
// Ratio = Cost / LowerBound is therefore a true upper bound on how far the
// session sits above any schedule of the same stream.
// The JSON field names are part of the scripting surface: `busysched online
// -json` and the daemon's per-tenant stats endpoint both emit this struct
// through the library's shared encoder.
type OnlineStats = online.Stats

// OnlinePool is sharded multi-tenant online state: one rolling-horizon
// session per tenant key, created on first placement and distributed over
// power-of-two lock shards, so independent tenants place concurrently and
// contend only when they hash together. Obtain one from Solver.OnlinePool;
// it is safe for concurrent use.
type OnlinePool struct {
	inner *online.Pool
}

// OnlinePool opens a multi-tenant pool of rolling-horizon sessions with
// parallelism g placing through the named arrival policy (the same names
// Online accepts). The shard count follows WithWorkers and each tenant's
// session is pre-sized by WithWindow; WithAdmission installs per-tenant
// placement limits. The pool shares the solver's recycled arenas, and
// Offline replays any tenant's retained window on one of them through the
// offline kernel for an exact competitive comparison.
func (s *Solver) OnlinePool(g int, policy string) (*OnlinePool, error) {
	rule, err := s.onlineRule(policy)
	if err != nil {
		return nil, err
	}
	inner, err := online.NewPool(g, rule, s.cfg.maxWorkers(), s.cfg.window, s.pool)
	if err != nil {
		return nil, err
	}
	if err := inner.SetAdmission(s.cfg.admission); err != nil {
		return nil, fmt.Errorf("busytime: %w", err)
	}
	return &OnlinePool{inner: inner}, nil
}

// Admission is a per-tenant acceptance policy for OnlinePool, installed with
// WithAdmission: MaxLive caps a tenant's simultaneously live jobs, and
// Rate/Burst form a token bucket over placement attempts (tokens refill at
// Rate per second up to Burst, each Place — accepted or rejected — spends
// one; Release and Stats are never throttled). Zero fields are unlimited.
type Admission = online.Admission

// Typed rejection errors of the admission and drain layers. They survive
// every wrapping: match with errors.Is.
var (
	// ErrLiveLimit rejects a placement that would exceed the tenant's
	// Admission.MaxLive; capacity re-admits as the tenant's jobs depart.
	ErrLiveLimit = online.ErrLiveLimit
	// ErrRateLimit rejects placements arriving faster than the tenant's
	// sustained Admission.Rate; the bucket refills continuously.
	ErrRateLimit = online.ErrRateLimit
	// ErrPoolClosed rejects new placements on a pool whose Close has been
	// called (the graceful-drain switch); in-flight work still completes.
	ErrPoolClosed = online.ErrPoolClosed
)

// PlaceRequest is one arrival of a PlaceBatch call.
type PlaceRequest = online.PlaceRequest

// PlaceResult is PlaceBatch's per-arrival verdict: machine and feed index,
// or a placement/admission error with both set to -1.
type PlaceResult = online.PlaceResult

// Place feeds the tenant's next unit-demand arrival, creating the tenant's
// session on first use, and returns the machine it was assigned to plus the
// job's feed index — the handle Release takes. Arrival order is per tenant:
// each tenant's starts must be non-decreasing, independent of the others.
func (p *OnlinePool) Place(tenant string, iv Interval) (machine, job int, err error) {
	return p.inner.Place(tenant, iv, 1)
}

// PlaceDemand is Place for a job consuming demand machine slots while
// active (1 ≤ demand ≤ g).
func (p *OnlinePool) PlaceDemand(tenant string, iv Interval, demand int) (machine, job int, err error) {
	return p.inner.Place(tenant, iv, demand)
}

// PlaceBatch feeds several arrivals of one tenant under a single shard-lock
// acquisition, writing out[i] for reqs[i] (lengths must match). It is the
// amortized form of PlaceDemand the daemon's framed data plane batches
// into: a warm batch allocates nothing, per-item failures (admission,
// arrival order) reject that item and continue, and on a pool that has been
// Closed every item reports ErrPoolClosed.
func (p *OnlinePool) PlaceBatch(tenant string, reqs []PlaceRequest, out []PlaceResult) error {
	return p.inner.PlaceBatch(tenant, reqs, out)
}

// Close flips the pool into draining: every subsequent placement is
// rejected with ErrPoolClosed while Release, Stats, Tenants, Drop and
// Offline keep working, so in-flight work finishes and final telemetry
// stays readable. Closing is idempotent and one-way.
func (p *OnlinePool) Close() { p.inner.Close() }

// Closed reports whether Close has been called.
func (p *OnlinePool) Closed() bool { return p.inner.Closed() }

// Release departs the tenant's job early; see OnlineSession.Release. An
// unknown tenant reports (false, nil) like an already-departed job.
func (p *OnlinePool) Release(tenant string, job int) (bool, error) {
	return p.inner.Release(tenant, job)
}

// Stats snapshots the tenant's telemetry; ok is false for a tenant that
// never placed.
func (p *OnlinePool) Stats(tenant string) (OnlineStats, bool) {
	return p.inner.Stats(tenant)
}

// Drop discards the tenant's session and reports whether one existed.
func (p *OnlinePool) Drop(tenant string) bool { return p.inner.Drop(tenant) }

// Tenants returns every tenant key currently holding a session, in no
// particular order.
func (p *OnlinePool) Tenants() []string { return p.inner.Tenants() }

// OnlineComparison is Offline's verdict on one tenant: how the irrevocable
// online decisions compare to an offline replay of the same retained window
// and to its lower bounds. OnlineCost is the tenant's total accrued busy
// time (stream lifetime), WindowCost the policy's offline replay cost of the
// retained window, Bounds the window instance's offline lower bounds, and
// Ratio = WindowCost / Bounds.Fractional the window's competitive ratio.
type OnlineComparison = online.Comparison

// Offline replays the tenant's retained window through the pool's policy on
// an arena leased from the solver's scratch pool and reports the competitive
// comparison. The window is snapshotted under the tenant's shard lock; the
// replay runs unlocked, so a slow comparison never stalls placements. It
// errors on an unknown tenant.
func (p *OnlinePool) Offline(tenant string) (OnlineComparison, error) {
	return p.inner.Offline(tenant)
}
