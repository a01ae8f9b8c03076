package scenario

import (
	"busytime/internal/core"
	"busytime/internal/parallel"
	"busytime/internal/xrand"
)

// genChunks is the fixed work-decomposition width of parallel generation.
// It is a constant — independent of the worker count — because chunk i
// always draws from xrand.Shard(seed, i): the chunk→stream mapping, not the
// chunk→worker mapping, determines the output, so any parallelism replays
// the same instance. 64 chunks keep every plausible GOMAXPROCS busy while
// the per-chunk slices stay large enough to amortize scheduling.
const genChunks = 64

// parallelTime generates jobs by splitting [0, horizon) into genChunks
// equal windows and running gen on each with its own sharded RNG. gen must
// emit jobs whose construction depends only on its rng and window — the
// memorylessness of the Poisson families makes windowed generation
// distribution-exact. Chunks are concatenated in time order and IDs
// reassigned sequentially, so the result is start-sorted whenever each
// chunk emits in start order.
func parallelTime(seed int64, workers int, horizon float64,
	gen func(r *xrand.RNG, t0, t1 float64, emit func(core.Job))) []core.Job {
	chunks := parallel.Map(genChunks, workers, func(i int) []core.Job {
		t0 := horizon * float64(i) / genChunks
		t1 := horizon * float64(i+1) / genChunks
		var out []core.Job
		gen(xrand.Shard(seed, i), t0, t1, func(j core.Job) { out = append(out, j) })
		return out
	})
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	jobs := make([]core.Job, 0, total)
	for _, c := range chunks {
		jobs = append(jobs, c...)
	}
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs
}

// demands overlays per-job demands in [1, maxDemand] drawn from a dedicated
// shard (index genChunks, disjoint from every time chunk), sequentially —
// one draw per job keeps it deterministic and it is O(n) either way.
func demands(seed int64, maxDemand, g int, jobs []core.Job) {
	if maxDemand <= 1 {
		return
	}
	if maxDemand > g {
		maxDemand = g
	}
	r := xrand.Shard(seed, genChunks)
	for i := range jobs {
		jobs[i].Demand = 1 + r.Intn(maxDemand)
	}
}
