package busytime

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"busytime/internal/parallel"
)

// streamShard is the number of instances SolveStream drains from its stream
// per fan-out.
const streamShard = 64

// BatchResult summarizes scheduling one instance of a batch or stream. Batch
// runs deliberately report summaries rather than retaining schedules:
// keeping every schedule of a 100k-job batch alive would defeat the arena
// recycling that makes batch runs fast. Re-run an interesting instance
// through Solve to get its schedule.
type BatchResult struct {
	// Index is the instance's position in the batch or stream.
	Index int `json:"index"`
	// Name echoes Instance.Name.
	Name string `json:"name"`
	// N and G are the instance's size and parallelism.
	N int `json:"n"`
	G int `json:"g"`
	// Machines and Cost describe the produced schedule.
	Machines int     `json:"machines"`
	Cost     float64 `json:"cost"`
	// LowerBound is the fractional lower bound and Ratio is
	// Cost/LowerBound (0 when the bound is 0).
	LowerBound float64 `json:"lower_bound"`
	Ratio      float64 `json:"ratio"`
	// Err is non-empty when Solve would have returned an error for the
	// instance (a nil or invalid instance, an algorithm rejection, under
	// WithVerify an infeasible schedule) or the run panicked; it carries
	// that error's text, and the schedule fields are then zero.
	Err string `json:"err,omitempty"`
	// Warm and SetupAllocs report arena reuse (see ArenaStats). They depend
	// on worker count and scheduling order, so they are excluded from
	// serialization to keep CSV/JSON output deterministic; SummarizeBatch
	// aggregates them.
	Warm        bool `json:"-"`
	SetupAllocs int  `json:"-"`
	// Components is the connected-component count the decomposition layer
	// observed for this instance and IntraWorkers how many workers solved
	// them; both are 0 when the run never consulted the layer (see
	// WithIntraWorkers). Like Warm they depend on momentary pool pressure,
	// so they are excluded from serialization.
	Components   int `json:"-"`
	IntraWorkers int `json:"-"`
	// Shards is the time-shard count when the decomposition layer took the
	// opt-in sharding path for this instance (WithTimeSharding), 0 otherwise.
	Shards int `json:"-"`
}

// SolveBatch schedules every instance through Solve, fanned out across
// WithWorkers workers that lease the session's arenas (or schedule in fresh
// memory under WithFreshSchedules), and returns one summary per instance in
// input order — a parallel run is byte-identical to
// a sequential one. Per-instance failures, panics included, land in
// BatchResult.Err and do not abort the batch. Cancelling ctx stops workers
// at their next instance (and while they wait for an arena, and mid-run for
// the cancellable algorithms), drains the fan-out without leaking
// goroutines, and returns the context's error.
func (s *Solver) SolveBatch(ctx context.Context, instances []*Instance) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := s.fanOut(ctx, instances, 0)
	if err := context.Cause(ctx); err != nil {
		return nil, err
	}
	if out == nil {
		out = []BatchResult{} // an empty batch encodes as [], not null
	}
	return out, nil
}

// SolveStream drains the instance stream next (which reports ok=false when
// exhausted), scheduling it in shards of 64 instances with the same
// guarantees as SolveBatch; the output is identical to collecting the
// stream into a slice first. Arbitrarily long streams run in bounded
// memory. Ctx is also checked at every shard boundary.
func (s *Solver) SolveStream(ctx context.Context, next func() (*Instance, bool)) ([]BatchResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]BatchResult, 0, streamShard)
	shard := make([]*Instance, 0, streamShard)
	for {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		shard = shard[:0]
		for len(shard) < streamShard {
			in, ok := next()
			if !ok {
				break
			}
			shard = append(shard, in)
		}
		out = append(out, s.fanOut(ctx, shard, len(out))...)
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
		if len(shard) < streamShard {
			return out, nil
		}
	}
}

// fanOut solves the instances on up to WithWorkers goroutines and returns
// their summaries in input order, numbered from base.
func (s *Solver) fanOut(ctx context.Context, instances []*Instance, base int) []BatchResult {
	return parallel.Map(len(instances), s.cfg.maxWorkers(), func(i int) BatchResult {
		return s.solveItem(ctx, instances[i], base+i)
	})
}

// solveItem runs one batch item through Solve and folds the Result into a
// BatchResult. A panic is recovered into Err, so one bad item cannot take
// down the batch or the process. Once ctx is done the item is skipped: the
// caller discards the whole batch for the context's error.
func (s *Solver) solveItem(ctx context.Context, in *Instance, index int) (br BatchResult) {
	br.Index = index
	if in != nil {
		br.Name, br.N, br.G = in.Name, in.N(), in.G
	}
	if ctx.Err() != nil {
		return br
	}
	defer func() {
		if r := recover(); r != nil {
			br.Err = fmt.Sprintf("busytime: %s panicked: %v", s.cfg.algorithm, r)
		}
	}()
	res, err := s.Solve(ctx, in)
	if err != nil {
		br.Err = err.Error()
		return br
	}
	br.Machines, br.Cost = res.Machines, res.Cost
	br.LowerBound, br.Ratio = res.LowerBound(), res.Ratio()
	br.Warm, br.SetupAllocs = res.Arena.Warm, res.Arena.SetupAllocs
	br.Components, br.IntraWorkers, br.Shards = res.Decomp.Components, res.Decomp.Workers, res.Decomp.Shards
	return br
}

// BatchSummary aggregates the arena-reuse telemetry of a batch: how many
// runs found their worker's arena warm, and how many backing allocations
// the arenas performed in total. In steady state (a warm pool re-serving
// seen instance shapes) SetupAllocs stays flat while WarmRuns tracks Runs.
//
// The decomposition fields summarize the intra-instance layer: Components
// is the total component count the sweeps observed (0 when the layer never
// ran — see WithIntraWorkers and WithTimeSharding), DecomposedRuns and
// ShardedRuns count the instances actually solved component-parallel or
// time-sharded, and MaxIntraWorkers/MaxShards the widest fan-out any single
// instance achieved.
type BatchSummary struct {
	Runs        int
	WarmRuns    int
	SetupAllocs int

	Components      int
	DecomposedRuns  int
	ShardedRuns     int
	MaxIntraWorkers int
	MaxShards       int
}

// HitRate returns the fraction of runs served by a warm arena, 0 when the
// summary is empty.
func (b BatchSummary) HitRate() float64 {
	if b.Runs == 0 {
		return 0
	}
	return float64(b.WarmRuns) / float64(b.Runs)
}

// SummarizeBatch folds the per-run arena counters of a batch into a
// BatchSummary.
func SummarizeBatch(results []BatchResult) BatchSummary {
	var b BatchSummary
	for _, r := range results {
		b.Runs++
		if r.Warm {
			b.WarmRuns++
		}
		b.SetupAllocs += r.SetupAllocs
		b.Components += r.Components
		if r.IntraWorkers > 0 {
			b.DecomposedRuns++
		}
		if r.IntraWorkers > b.MaxIntraWorkers {
			b.MaxIntraWorkers = r.IntraWorkers
		}
		if r.Shards > 0 {
			b.ShardedRuns++
		}
		if r.Shards > b.MaxShards {
			b.MaxShards = r.Shards
		}
	}
	return b
}

// WriteBatchCSV writes batch results as CSV with a header row. Floats use
// the shortest round-trip representation, so output is byte-stable across
// runs and worker counts.
func WriteBatchCSV(w io.Writer, results []BatchResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "name", "n", "g", "machines", "cost", "lower_bound", "ratio", "err"}); err != nil {
		return err
	}
	for _, r := range results {
		rec := []string{
			strconv.Itoa(r.Index),
			r.Name,
			strconv.Itoa(r.N),
			strconv.Itoa(r.G),
			strconv.Itoa(r.Machines),
			strconv.FormatFloat(r.Cost, 'g', -1, 64),
			strconv.FormatFloat(r.LowerBound, 'g', -1, 64),
			strconv.FormatFloat(r.Ratio, 'g', -1, 64),
			r.Err,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteBatchJSON writes batch results as an indented JSON array.
func WriteBatchJSON(w io.Writer, results []BatchResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
