package online

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"busytime/internal/core"
	"busytime/internal/interval"
)

// Admission is a pool's per-tenant acceptance policy. The zero value admits
// everything; either limit alone may be set.
//
// MaxLive caps the number of simultaneously live jobs a tenant may hold:
// a Place that would exceed it is rejected with ErrLiveLimit, making a
// tenant's worst-case machine footprint (and the pool's per-tenant memory)
// a configured constant instead of whatever the stream does.
//
// Rate and Burst form a per-tenant token bucket over placement attempts:
// tokens refill at Rate per second up to Burst (0 defaults to Rate, minimum
// 1), each Place spends one, and an empty bucket rejects with ErrRateLimit.
// The bucket charges accepted and rejected placements alike — a tenant
// hammering rejects is exactly the tenant the limiter exists for — but
// Release, Stats and Offline are free: draining load is never throttled.
type Admission struct {
	MaxLive int     // max live jobs per tenant; 0 = unlimited
	Rate    float64 // sustained placements/sec per tenant; 0 = unlimited
	Burst   int     // token bucket depth; 0 derives max(1, ⌈Rate⌉)
}

// limited reports whether the policy constrains anything.
func (a Admission) limited() bool { return a.MaxLive > 0 || a.Rate > 0 }

// Validate rejects negative limits and NaN rates.
func (a Admission) Validate() error {
	if a.MaxLive < 0 {
		return fmt.Errorf("online: Admission.MaxLive = %d, want ≥ 0", a.MaxLive)
	}
	if a.Rate < 0 || a.Rate != a.Rate {
		return fmt.Errorf("online: Admission.Rate = %v, want ≥ 0", a.Rate)
	}
	if a.Burst < 0 {
		return fmt.Errorf("online: Admission.Burst = %d, want ≥ 0", a.Burst)
	}
	return nil
}

// Typed admission and lifecycle rejections. They are sentinel values —
// allocation-free to return on the hot path and matchable with errors.Is
// through every wrapping layer (the public facade, the daemon's reject
// frames).
var (
	// ErrLiveLimit rejects a placement that would exceed the tenant's
	// configured live-job cap; capacity frees as the tenant's jobs depart.
	ErrLiveLimit = errors.New("online: admission: tenant live-job limit reached")
	// ErrRateLimit rejects a placement arriving faster than the tenant's
	// configured sustained rate; the token bucket refills continuously.
	ErrRateLimit = errors.New("online: admission: tenant placement rate exceeded")
	// ErrPoolClosed rejects new work on a pool that has begun draining.
	ErrPoolClosed = errors.New("online: pool is draining; new placements rejected")
)

// Pool is sharded multi-tenant session state: one rolling-horizon Session
// per tenant key, distributed over power-of-two lock shards so concurrent
// tenants contend only when they hash together. Sessions are created on
// first placement with the pool's parallelism, policy and window hint; all
// per-tenant operations run under the owning shard's lock, so a Pool is safe
// for concurrent use while each underlying Session stays single-threaded.
//
// The optional scratch channel — the same recycled-arena pool the Solver's
// Solve and batch fan-out lease from — powers Offline: an on-demand replay
// of a tenant's retained window through the offline kernel on a leased
// arena, yielding the exact competitive comparison (online cost vs. offline
// cost vs. the window's CachedBounds) without allocating schedule state per
// call.
//
// A pool optionally enforces an Admission policy per tenant (SetAdmission)
// and supports a one-way drain switch (Close) that rejects new placements
// with ErrPoolClosed while leaving Release, Stats and Offline available to
// finish in-flight work — the daemon's graceful-shutdown contract.
type Pool struct {
	g       int
	policy  Policy
	window  int
	mask    uint32
	shards  []poolShard
	scratch chan *core.Scratch // nil: Offline unavailable

	adm    Admission
	burst  float64
	closed atomic.Bool
	epoch  time.Time // monotonic origin of the token-bucket clock
	now    func() int64
}

type poolShard struct {
	mu      sync.Mutex
	tenants map[string]*tenantState
}

// tenantState pairs a tenant's session with its admission bookkeeping; both
// live and die together under the owning shard's lock.
type tenantState struct {
	s      *Session
	tokens float64 // token bucket level, only meaningful when Rate > 0
	last   int64   // bucket refill clock, nanoseconds on the pool's scale
}

// NewPool returns an empty pool of rolling-horizon sessions with parallelism
// g placing through policy p. shards is rounded up to a power of two (≤ 1
// means a single shard); window is the per-session live-window presize hint
// (see NewSessionSized). scratch may be nil, disabling Offline.
func NewPool(g int, p Policy, shards, window int, scratch chan *core.Scratch) (*Pool, error) {
	if _, err := NewSessionSized(g, p, 0); err != nil {
		return nil, err // validates g and the policy once up front
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	pool := &Pool{
		g:       g,
		policy:  p,
		window:  window,
		mask:    uint32(n - 1),
		shards:  make([]poolShard, n),
		scratch: scratch,
		epoch:   time.Now(),
	}
	pool.now = func() int64 { return int64(time.Since(pool.epoch)) }
	for i := range pool.shards {
		pool.shards[i].tenants = make(map[string]*tenantState)
	}
	return pool, nil
}

// SetAdmission installs the per-tenant acceptance policy. It is a setup
// call: install limits before serving traffic, not concurrently with Place.
// Existing tenants start their buckets full at the next placement.
func (p *Pool) SetAdmission(a Admission) error {
	if err := a.Validate(); err != nil {
		return err
	}
	p.adm = a
	p.burst = float64(a.Burst)
	if a.Burst == 0 && a.Rate > 0 {
		p.burst = a.Rate
		if p.burst < 1 {
			p.burst = 1
		}
	}
	return nil
}

// Admission returns the installed acceptance policy (zero value: admit all).
func (p *Pool) Admission() Admission { return p.adm }

// Close flips the pool into draining: every subsequent Place or PlaceBatch
// item is rejected with ErrPoolClosed, while Release, Stats, Tenants, Drop
// and Offline keep working so in-flight work can finish and final telemetry
// can be read. Closing is idempotent and one-way.
func (p *Pool) Close() { p.closed.Store(true) }

// Closed reports whether the pool is draining.
func (p *Pool) Closed() bool { return p.closed.Load() }

// shard hashes the tenant key with FNV-1a onto a lock shard.
func (p *Pool) shard(tenant string) *poolShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return &p.shards[uint32(h)&p.mask]
}

// state returns the tenant's state, creating it on first use. Callers hold
// sh.mu.
func (p *Pool) state(sh *poolShard, tenant string) *tenantState {
	ts := sh.tenants[tenant]
	if ts == nil {
		s, _ := NewSessionSized(p.g, p.policy, p.window) // args validated in NewPool
		ts = &tenantState{s: s, tokens: p.burst, last: p.now()}
		sh.tenants[tenant] = ts
	}
	return ts
}

// admit charges one placement attempt against the tenant's limits. Callers
// hold the shard lock; rejections are sentinel errors (no allocation).
func (p *Pool) admit(ts *tenantState) error {
	if p.adm.MaxLive > 0 && ts.s.Live() >= p.adm.MaxLive {
		return ErrLiveLimit
	}
	if p.adm.Rate > 0 {
		now := p.now()
		ts.tokens += float64(now-ts.last) * p.adm.Rate / 1e9
		if ts.tokens > p.burst {
			ts.tokens = p.burst
		}
		ts.last = now
		if ts.tokens < 1 {
			return ErrRateLimit
		}
		ts.tokens--
	}
	return nil
}

// Place feeds the tenant's next arrival; see Session.Place. The returned
// feed index (the tenant's Jobs() before the call) is the Release handle.
// A draining pool rejects with ErrPoolClosed; a pool with an Admission
// policy may reject with ErrLiveLimit or ErrRateLimit.
func (p *Pool) Place(tenant string, iv interval.Interval, demand int) (machine, job int, err error) {
	if p.closed.Load() {
		return -1, -1, ErrPoolClosed
	}
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := p.state(sh, tenant)
	if p.adm.limited() {
		ts.s.Advance(iv.Start) // retire passed ends before judging the cap
		if err := p.admit(ts); err != nil {
			return -1, -1, err
		}
	}
	job = ts.s.Jobs()
	machine, err = ts.s.Place(iv, demand)
	if err != nil {
		return -1, -1, err
	}
	return machine, job, nil
}

// PlaceRequest is one arrival of a batched placement.
type PlaceRequest struct {
	Iv     interval.Interval
	Demand int
}

// PlaceResult is the verdict on one batched arrival: the machine and feed
// index on success, or the placement's error (admission sentinels included)
// with both set to -1.
type PlaceResult struct {
	Machine int
	Job     int
	Err     error
}

// PlaceBatch feeds several arrivals of one tenant under a single shard-lock
// acquisition, writing out[i] for reqs[i]. Batching amortizes the lock and
// the tenant lookup across the batch — the daemon's framed data plane reads
// N frames off a connection and lands them here as one call — and a warm
// batch allocates nothing. Items are admitted and placed in order;
// per-item failures (admission, out-of-order arrival) reject that item and
// continue, so one bad frame cannot shadow-reject its batch. On a draining
// pool every item reports ErrPoolClosed.
func (p *Pool) PlaceBatch(tenant string, reqs []PlaceRequest, out []PlaceResult) error {
	if len(reqs) != len(out) {
		return fmt.Errorf("online: PlaceBatch: %d requests but %d result slots", len(reqs), len(out))
	}
	if p.closed.Load() {
		for i := range out {
			out[i] = PlaceResult{Machine: -1, Job: -1, Err: ErrPoolClosed}
		}
		return nil
	}
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := p.state(sh, tenant)
	limited := p.adm.limited()
	for i := range reqs {
		if limited {
			ts.s.Advance(reqs[i].Iv.Start) // retire passed ends before judging the cap
			if err := p.admit(ts); err != nil {
				out[i] = PlaceResult{Machine: -1, Job: -1, Err: err}
				continue
			}
		}
		job := ts.s.Jobs()
		m, err := ts.s.Place(reqs[i].Iv, reqs[i].Demand)
		if err != nil {
			out[i] = PlaceResult{Machine: -1, Job: -1, Err: err}
			continue
		}
		out[i] = PlaceResult{Machine: m, Job: job}
	}
	return nil
}

// Release departs the tenant's job early; see Session.Release. A tenant with
// no session reports (false, nil) like an already-departed job. Release
// works on a draining pool: finishing work is never rejected.
func (p *Pool) Release(tenant string, job int) (bool, error) {
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := sh.tenants[tenant]
	if ts == nil {
		return false, nil
	}
	return ts.s.Release(job)
}

// Stats snapshots the tenant's session telemetry; ok is false for a tenant
// that never placed.
func (p *Pool) Stats(tenant string) (Stats, bool) {
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := sh.tenants[tenant]
	if ts == nil {
		return Stats{}, false
	}
	return ts.s.Stats(), true
}

// Drop discards the tenant's session and reports whether one existed. A
// later Place by the same key starts a fresh session (no error, no panic):
// dropping is an eviction, not a ban. An Offline replay already in flight
// for the tenant is unaffected — it runs on a snapshot taken before Drop.
func (p *Pool) Drop(tenant string) bool {
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, ok := sh.tenants[tenant]
	delete(sh.tenants, tenant)
	return ok
}

// Tenants returns every tenant key currently holding a session, in no
// particular order.
func (p *Pool) Tenants() []string {
	var out []string
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for k := range sh.tenants {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// Live returns the tenant's live-job count without a full Stats snapshot;
// ok is false for a tenant that never placed.
func (p *Pool) Live(tenant string) (n int, ok bool) {
	sh := p.shard(tenant)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ts := sh.tenants[tenant]
	if ts == nil {
		return 0, false
	}
	return ts.s.Live(), true
}

// Comparison is Offline's verdict on one tenant's retained window.
type Comparison struct {
	OnlineCost float64     // the session's total accrued busy time
	WindowCost float64     // the policy's replay cost of the retained window alone
	Bounds     core.Bounds // offline lower bounds of the retained-window instance
	Ratio      float64     // WindowCost / Bounds.Fractional: the window's competitive ratio
}

// Offline replays the tenant's retained window through the pool's policy on
// an arena leased from the shared scratch pool and reports the competitive
// comparison. The window instance is snapshotted under the shard lock; the
// replay itself runs unlocked, so a slow comparison never stalls the
// tenant's placement path — and a concurrent Drop of the tenant cannot
// disturb it, the replay owns its snapshot. Errors: no scratch pool
// configured, unknown tenant, or an infeasible replay (a bug).
func (p *Pool) Offline(tenant string) (Comparison, error) {
	if p.scratch == nil {
		return Comparison{}, fmt.Errorf("online: pool has no scratch arenas; Offline unavailable")
	}
	sh := p.shard(tenant)
	sh.mu.Lock()
	ts := sh.tenants[tenant]
	if ts == nil {
		sh.mu.Unlock()
		return Comparison{}, fmt.Errorf("online: unknown tenant %q", tenant)
	}
	in := ts.s.Instance() // fresh copy: safe to release the lock
	online := ts.s.Cost()
	sh.mu.Unlock()

	sc := <-p.scratch
	defer func() { p.scratch <- sc }()
	sched, err := RunScratch(in, sc, p.policy)
	if err != nil {
		return Comparison{}, err
	}
	cmp := Comparison{
		OnlineCost: online,
		WindowCost: sched.Cost(),
		Bounds:     in.CachedBounds(),
	}
	if cmp.Bounds.Fractional > 0 {
		cmp.Ratio = cmp.WindowCost / cmp.Bounds.Fractional
	}
	return cmp, nil
}
