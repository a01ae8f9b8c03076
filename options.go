package busytime

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"busytime/internal/algo"
)

// Option configures a Solver under construction; see New. Options validate
// eagerly where they can and defer cross-option checks (a lookahead without
// an online algorithm, a length bound on a non-segmenting algorithm) to New,
// which reports the first configuration error.
type Option func(*config)

// config is the resolved Solver configuration.
type config struct {
	algorithm  string
	verify     bool
	workers    int
	intra      int // 0 off (default), -1 auto, n ≥ 1 explicit cap
	shards     int // 0 off (default), -1 auto, n ≥ 2 explicit shard count
	lookahead  int
	exactLimit int
	lengthD    float64
	window     int
	admission  Admission
	fresh      bool
	err        error
}

func (c *config) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf("busytime: "+format, args...)
	}
}

// WithAlgorithm selects the scheduling algorithm by its registered name
// ("firstfit", "bestfit", "properfit", "boundedlength", "clique", "laminar",
// "exact", "portfolio", "online-firstfit", …); Algorithms lists every name.
// The default is "firstfit", the paper's 4-approximation.
func WithAlgorithm(name string) Option {
	return func(c *config) {
		if name == "" {
			c.fail("WithAlgorithm: empty name")
			return
		}
		c.algorithm = name
	}
}

// WithVerify controls whether every schedule's feasibility (capacity at
// every instant, totality) is re-checked before a Result is returned;
// verification failures surface as errors. Off by default: every shipped
// algorithm is differential- and fuzz-tested to produce feasible schedules.
func WithVerify(verify bool) Option {
	return func(c *config) { c.verify = verify }
}

// WithWorkers sets the solver's parallelism: the fan-out width of SolveBatch
// and SolveStream, and equally the number of recycled arenas — the count of
// Solve calls that can run concurrently without contending for scratch
// state. 0 (the default) means GOMAXPROCS. Results never depend on it. New
// allocates the arenas up front, so n is capped at 1<<12; New rejects
// larger values.
func WithWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithWorkers: %d workers, want ≥ 0", n)
			return
		}
		if n > maxWorkerCount {
			c.fail("WithWorkers: %d workers, want ≤ %d", n, maxWorkerCount)
			return
		}
		c.workers = n
	}
}

// maxWorkerCount is WithWorkers' cap: New builds one arena (and, with
// decomposition on, one decomposition runner) per worker before the first
// Solve.
const maxWorkerCount = 1 << 12

// WithIntraWorkers enables intra-instance parallelism: when the session's
// algorithm declares itself decomposable, each Solve (and each batch worker)
// splits its instance into the connected components of the interval graph,
// groups consecutive components into chunks of about equal job count (at
// most 16 per worker), and solves the chunks on up to n workers — its own
// plus spare arenas borrowed, only while they are idle, from the same
// WithWorkers pool, so batch fan-out and chunk fan-out share one core budget
// instead of multiplying.
//
// n = 0 means automatic (the full WithWorkers budget); n = 1 disables the
// layer (the default); n ≥ 2 caps the per-instance fan-out. The produced
// schedules are bitwise-identical at every setting — decomposition is a
// latency knob, not an algorithm change — so the option is silently inert for
// algorithms that do not decompose (their cursor, coloring or search state
// spans components).
func WithIntraWorkers(n int) Option {
	return func(c *config) {
		if n < 0 {
			c.fail("WithIntraWorkers: %d workers, want ≥ 0", n)
			return
		}
		if n == 0 {
			c.intra = -1 // auto
			return
		}
		c.intra = n
	}
}

// intraWorkers resolves the intra-instance worker budget; ≤ 1 means the
// decomposition layer is off.
func (c *config) intraWorkers() int {
	if c.intra < 0 {
		return c.maxWorkers()
	}
	return c.intra
}

// WithTimeSharding opts into time-axis sharding for instances whose
// component structure starves WithIntraWorkers — a single (or dominant)
// connected component. When the session's algorithm supports sharding (see
// AlgorithmInfo.Shards), such an instance's time axis is cut at up to k−1
// low-crossing bucket boundaries, every job joins the shard whose time range
// holds its start (a job crossing a cut stays in the shard it starts in),
// and the shards are solved by the algorithm's own rule onto machines of
// their own, concurrently on the arenas of the WithWorkers pool that are
// idle and in turn on the calling goroutine for the rest. The cuts depend
// on the instance and k alone, so pool pressure changes how many shards run
// at once, never the schedule.
//
// Unlike every other parallelism knob in this package, sharding CAN change
// results: the sharded schedule is always feasible (WithVerify-clean) and
// empirically within a few percent of the sequential cost, but it is not
// bitwise-identical — which is exactly why it is a separate opt-in rather
// than part of WithIntraWorkers. Result.Decomp reports the shard count and
// the number of jobs crossing a cut, so callers can audit what the option
// did.
//
// k = 0 means automatic (the full WithWorkers budget); k = 1 disables the
// layer (the default); k ≥ 2 fixes the shard count. The layer declines
// silently — falling back to the ordinary bitwise paths — whenever sharding
// cannot pay: too few jobs, a degenerate time axis or too many crossing
// jobs.
func WithTimeSharding(k int) Option {
	return func(c *config) {
		if k < 0 {
			c.fail("WithTimeSharding: %d shards, want ≥ 0", k)
			return
		}
		if k == 0 {
			c.shards = -1 // auto
			return
		}
		c.shards = k
	}
}

// timeShards resolves the time-shard budget; ≤ 1 means sharding is off.
func (c *config) timeShards() int {
	if c.shards < 0 {
		return c.maxWorkers()
	}
	return c.shards
}

// WithLookahead sets the semi-online buffer size k for the online-*
// algorithms: the scheduler sees the next k arrivals and always places the
// longest buffered job first. k = 1 (the default) is pure arrival order;
// k ≥ n recovers the offline processing order, so online-firstfit with full
// lookahead equals the paper's FirstFit. For k ≥ 2, New builds the session's
// algorithm as the lookahead replay of the named row's rule; its buffer
// spans components, so WithIntraWorkers and WithTimeSharding leave it
// untouched. New rejects a lookahead on offline algorithms.
func WithLookahead(k int) Option {
	return func(c *config) {
		if k < 1 {
			c.fail("WithLookahead: %d, want ≥ 1", k)
			return
		}
		c.lookahead = k
	}
}

// WithWindow pre-sizes the rolling-horizon state of sessions opened by
// Solver.Online and Solver.OnlinePool for about n simultaneously live jobs:
// the retained-window ring, the departure heap and the telemetry scratch
// start at that capacity, so a stream that stays under the hint reaches the
// zero-allocation steady state without any warm-up growth. It is a hint,
// not a limit — sessions grow past it on demand — and it is inert for batch
// Solve calls. n = 0 (the default) starts empty. The presize allocates
// about 64 bytes per job up front, so n is capped at 1<<24 (about 1 GiB per
// session); New rejects larger values.
func WithWindow(n int) Option {
	return func(c *config) {
		if n < 0 || n > maxWindow {
			c.fail("WithWindow: %d live jobs, want in [0, %d]", n, maxWindow)
			return
		}
		c.window = n
	}
}

// maxWindow is WithWindow's cap: 1<<24 presized jobs at 64 bytes each
// (retained record, departure-heap entry, telemetry slot).
const maxWindow = 1 << 24

// WithAdmission installs a per-tenant acceptance policy on pools opened by
// Solver.OnlinePool: a live-job cap (rejections are ErrLiveLimit) and a
// token-bucket placement rate (ErrRateLimit), judged per tenant under the
// tenant's shard lock — see Admission for the exact semantics. The zero
// Admission admits everything, as does omitting the option. Single-tenant
// sessions from Solver.Online are not limited: admission is a
// multi-tenant-service concern, and the busyschedd daemon is its consumer.
func WithAdmission(a Admission) Option {
	return func(c *config) {
		if err := a.Validate(); err != nil {
			c.fail("WithAdmission: %w", err)
			return
		}
		c.admission = a
	}
}

// WithExactLimit sets the largest connected component (in jobs) the "exact"
// branch-and-bound accepts, replacing its default of 18. New builds the
// session's exact solver with that limit, and the decomposed path
// (WithIntraWorkers) solves its components under the same limit. The search
// is exponential: raising the limit is useful together with a cancelling
// context. New rejects the option on other algorithms.
func WithExactLimit(maxJobs int) Option {
	return func(c *config) {
		if maxJobs < 1 {
			c.fail("WithExactLimit: %d jobs, want ≥ 1", maxJobs)
			return
		}
		c.exactLimit = maxJobs
	}
}

// WithLengthBound sets the segment granularity d of the "boundedlength"
// algorithm (§3.2); 0, the default, uses the maximum job length. d must be
// finite and ≥ 0: a NaN or infinite d would put every job in one segment.
// New builds the session's boundedlength with that d and rejects the option
// on other algorithms.
func WithLengthBound(d float64) Option {
	return func(c *config) {
		if d < 0 || math.IsNaN(d) || math.IsInf(d, 1) {
			c.fail("WithLengthBound: d = %v, want finite and ≥ 0", d)
			return
		}
		c.lengthD = d
	}
}

// WithFreshSchedules makes every Solve return its schedule in caller-owned
// memory instead of the solver's recycled arena: the solve still runs on a
// leased arena, and Solve returns the sealed copy Result.Detach makes, taken
// before the lease ends. Results stay valid forever without Detach, at the
// cost of one copy per call. This is the right mode when schedules are
// retained; the default arena mode is the right one for high-throughput
// metric extraction. Both modes bound concurrent solves by WithWorkers.
func WithFreshSchedules() Option {
	return func(c *config) { c.fresh = true }
}

// maxWorkers resolves the configured worker count.
func (c *config) maxWorkers() int {
	if c.workers > 0 {
		return c.workers
	}
	return runtime.GOMAXPROCS(0)
}

// AlgorithmInfo describes one registered algorithm.
type AlgorithmInfo struct {
	// Name is the identifier WithAlgorithm accepts.
	Name string
	// Description is a one-line summary with the paper reference.
	Description string
	// Cancellation reports where the algorithm observes context
	// cancellation: "mid-run" for the unbounded-time searches that
	// checkpoint ctx inside a single run (exact), "run-boundary" for the
	// fast polynomial algorithms that drivers cancel between runs.
	Cancellation string
	// Decomposes reports whether the algorithm participates in the
	// component-decomposition layer: true means WithIntraWorkers can solve
	// its time-disjoint components concurrently with a bitwise-identical
	// result; false means the option leaves the algorithm untouched.
	Decomposes bool
	// Shards reports whether the algorithm additionally supports time
	// sharding: true means WithTimeSharding can cut a dominant component
	// across the time axis and solve each shard on its own (feasible but not
	// bitwise — see WithTimeSharding); false means that option leaves the
	// algorithm untouched.
	Shards bool
}

// Algorithms lists every registered algorithm sorted by name; each entry's
// Name is valid for WithAlgorithm.
func Algorithms() []AlgorithmInfo {
	all := algo.All()
	out := make([]AlgorithmInfo, len(all))
	for i, a := range all {
		out[i] = AlgorithmInfo{
			Name:         a.Name,
			Description:  a.Description,
			Cancellation: a.Cancellation.String(),
			Decomposes:   a.Decompose != nil,
			Shards:       a.Decompose != nil && a.Decompose.Shards,
		}
	}
	return out
}

// algorithmNames returns every registered name for error messages.
func algorithmNames() string {
	all := algo.All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
