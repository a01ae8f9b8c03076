// Package bench is the repository's benchmark. Five seeded workloads drive
// the offline solver, its decomposition layer, the optical reduction, the
// online session and the daemon's wire path through their public functions,
// check every output, and report end-to-end metrics (untraced runs) or
// per-layer metrics with span self times (traced runs). cmd/benchledger is
// its command-line front end; README.md lists the workloads and metrics.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// Config selects what one run measures.
type Config struct {
	Seed    int64   // input seed: equal seeds give equal inputs
	Seconds float64 // measuring time of one workload
	Trace   bool    // traced run: spans on, per-layer metrics out
	Short   bool    // tiny inputs, for tests
}

func (c Config) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// setups is how many times a run sets its workload up; setup_s is the
// median.
const setups = 3

// sizes are the input sizes of one preset.
type sizes struct {
	denseN, clusteredN, lightpathN, onlineN int

	wireWarmRuns  int // runs per tenant that warm a fresh daemon
	wireRatioRuns int // runs per tenant after which cost_ratio is read

	keep     int // latency samples kept per timed operation
	traceCap int // spans a traced run can hold
}

// fullSizes are the benchmark's sizes. lightpathN keeps every seed's
// schedule clear of a growth step of the solver's chunk arena: at 16k about
// one seed in five crossed it and added 256 KiB to a 2.5 MB live heap.
var fullSizes = sizes{
	denseN:        100_000,
	clusteredN:    50_000,
	lightpathN:    17_000,
	onlineN:       1_000_000,
	wireWarmRuns:  512,
	wireRatioRuns: 1024,
	keep:          1 << 20,
	traceCap:      1 << 18,
}

var shortSizes = sizes{
	denseN:        2_000,
	clusteredN:    2_000,
	lightpathN:    400,
	onlineN:       20_000,
	wireWarmRuns:  2,
	wireRatioRuns: 8,
	keep:          1 << 14,
	traceCap:      1 << 14,
}

// MetricDef names one metric, its unit and which direction is better.
type MetricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// EndToEnd lists the metrics an untraced run of any workload reports: what
// a user of the solver, the session or the daemon sees. Set-up time and
// throughput are in CPU time of the process, which leaves out the time a
// shared host takes the processor away; latencies are wall time.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"lat_us_p50", "us", "lower"},
	{"mem_peak_mb", "MB", "lower"},
	{"cost_ratio", "ratio", "lower"},
}

// spanNames are the spans the benchmark records. The first three are roots
// around work of the benchmark's own; the rest each bracket one call into a
// layer.
var spanNames = []string{
	"setup", "verify", "request",
	"generate", "validate", "axis", "bounds", "solve", "crosscheck", "check",
	"place", "release", "placebatch", "send_flush", "read_reply",
}

// PerLayer lists the metrics a traced run of any workload reports. A
// workload reports 0 for a layer it does not reach. The first, the tail of
// the operation latency lat_us_p50 takes the median of, varies too much
// from run to run on a shared host to be held to a bound.
var PerLayer = append([]MetricDef{
	{"lat_us_p99", "us", "lower"},
	{"scenario.generate_ms", "ms", "lower"},
	{"core.validate_ms", "ms", "lower"},
	{"core.axis_ms", "ms", "lower"},
	{"core.bounds_ms", "ms", "lower"},
	{"solver.first_solve_ms", "ms", "lower"},
	{"solver.warm_solve_ms_p50", "ms", "lower"},
	{"solver.warm_solve_ms_p90", "ms", "lower"},
	{"solver.alloc_bytes_per_solve", "bytes", "lower"},
	{"solver.setup_allocs", "count", "lower"},
	{"decomp.sweep_ms", "ms", "lower"},
	{"decomp.solve_ms", "ms", "lower"},
	{"decomp.merge_ms", "ms", "lower"},
	{"decomp.components", "count", "lower"},
	{"decomp.workers", "count", "higher"},
	{"decomp.largest_component", "count", "lower"},
	{"optical.regenerators", "count", "lower"},
	{"optical.wavelengths", "count", "lower"},
	{"optical.check_ms", "ms", "lower"},
	{"sim.crosscheck_ms", "ms", "lower"},
	{"session.place_ns_p50", "ns", "lower"},
	{"session.place_ns_p99", "ns", "lower"},
	{"session.place_ns_p9999", "ns", "lower"},
	{"session.release_ns_p50", "ns", "lower"},
	{"session.release_ns_p99", "ns", "lower"},
	{"session.machines", "count", "lower"},
	{"session.peak_live", "count", "lower"},
	{"session.window_cap", "count", "lower"},
	{"session.compactions", "count", "lower"},
	{"pool.placebatch_ns_per_item_p50", "ns", "lower"},
	{"pool.placebatch_ns_per_item_p99", "ns", "lower"},
	{"server.service_us_mean", "us", "lower"},
	{"server.frames", "count", "lower"},
	{"server.rejects", "count", "lower"},
	{"wire.transport_us", "us", "lower"},
	{"runtime.setup_wall_s", "s", "lower"},
	{"runtime.ops_per_wall_s", "1/s", "higher"},
	{"runtime.cpu_per_wall", "ratio", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"failed_frac", "ratio", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans", "count", "lower"},
	{"trace.dropped", "count", "lower"},
}, selfTimeDefs()...)

func selfTimeDefs() []MetricDef {
	defs := make([]MetricDef, len(spanNames))
	for i, n := range spanNames {
		defs[i] = MetricDef{"self_us." + n, "us", "lower"}
	}
	return defs
}

// Metric is one reported value. N is how many samples it summarises.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Workload is one named set of inputs and the loop that drives them.
type Workload struct {
	Name string
	Why  string
	run  func(*runner) error
}

// Workloads lists every workload in run order.
var Workloads = []Workload{
	{"offline-dense", "one component with ~1.25k live jobs: the placement kernel's capacity oracle and machine index do the work; decomposition declines", offlineDense},
	{"offline-clustered", "thousands of small disjoint components: decomposition sweep, solve and merge dominate; kernel work per placement is trivial", offlineClustered},
	{"optical-lightpath", "the paper's optical application: few distinct endpoints and long overlapping jobs, the kernel's worst case", opticalLightpath},
	{"online-stream", "a million-arrival stream with ~12.5k live jobs and early releases: the session's machine scan, heaps and compaction", onlineStream},
	{"wire-pipelined", "two pipelined connections with a tiny live window per tenant: frame decode, batching, pool lock, flush and loopback TCP", wirePipelined},
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Result is one workload run's report: the metrics of its kind of run in
// definition order, the operation counts, and the spans of a traced run.
type Result struct {
	Attempted int
	Failed    int
	Metrics   []Metric
	Spans     []Span
}

// runner carries one workload run's configuration, its span recorder (nil
// when untraced) and the metrics it has set so far.
type runner struct {
	cfg  Config
	sz   sizes
	rec  *Recorder
	vals map[string]Metric

	attempted, failed int

	rt      []metrics.Sample // heap live bytes, heap alloc bytes
	memPeak uint64
}

// Run runs one workload and checks its outputs; any failed check, and any
// operation that failed, is an error.
func Run(cfg Config, w Workload) (*Result, error) {
	r := newRunner(cfg)
	res := &Result{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	err := w.run(r)
	runtime.ReadMemStats(&ms1)
	res.Attempted, res.Failed = r.attempted, r.failed
	if err != nil {
		return res, fmt.Errorf("%s: %w", w.Name, err)
	}
	if r.attempted < 1 || r.failed > 0 {
		return res, fmt.Errorf("%s: %d of %d operations failed", w.Name, r.failed, r.attempted)
	}
	r.set("mem_peak_mb", float64(r.memPeak)/(1<<20), 1)
	r.set("failed_frac", 0, r.attempted)
	r.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC), 1)
	r.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, int(ms1.NumGC-ms0.NumGC))

	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
		res.Spans = r.rec.Spans()
		self := SelfTimes(res.Spans)
		for _, n := range spanNames {
			if lt := self[n]; lt.Calls > 0 {
				r.set("self_us."+n, float64(lt.Self)/float64(lt.Calls)/1e3, lt.Calls)
			}
		}
		r.set("trace.spans", float64(len(res.Spans)), 1)
		r.set("trace.dropped", float64(r.rec.Dropped()), 1)
	}
	for _, d := range defs {
		m, ok := r.vals[d.Name]
		if !ok && !cfg.Trace {
			return res, fmt.Errorf("%s: no value for end-to-end metric %s", w.Name, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return res, fmt.Errorf("%s: metric %s is %v", w.Name, d.Name, m.Value)
		}
		m.Name, m.Unit = d.Name, d.Unit
		res.Metrics = append(res.Metrics, m)
	}
	return res, nil
}

func newRunner(cfg Config) *runner {
	r := &runner{
		cfg:  cfg,
		sz:   fullSizes,
		vals: make(map[string]Metric),
		rt:   []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}},
	}
	if cfg.Short {
		r.sz = shortSizes
	}
	if cfg.Trace {
		r.rec = NewRecorder(r.sz.traceCap)
	}
	return r
}

// set records metric name; the name must be defined in EndToEnd or
// PerLayer.
func (r *runner) set(name string, v float64, n int) {
	if !defined(name) {
		panic("bench: undefined metric " + name)
	}
	r.vals[name] = Metric{Name: name, Value: v, N: n}
}

func defined(name string) bool {
	for _, defs := range [][]MetricDef{EndToEnd, PerLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// setup runs build once per configured set-up, each time constructing the
// workload's state from nothing, and reports the median CPU time of a
// build as setup_s. build receives the set-up's root span; the last
// build's state is the one measured.
func (r *runner) setup(build func(root int32) error) error {
	var cpu, wall []float64
	for i := range setups {
		runtime.GC() // earlier builds' garbage is not this build's cost
		t0, c0 := time.Now(), cpuTime()
		root := r.rec.Begin("setup", -1, int64(i))
		err := build(root)
		r.rec.End(root)
		if err != nil {
			return err
		}
		cpu = append(cpu, (cpuTime() - c0).Seconds())
		wall = append(wall, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(cpu), len(cpu))
	r.set("runtime.setup_wall_s", median(wall), len(wall))
	r.settleMem()
	return nil
}

// phases runs measure for the configured time. A traced run measures the
// first half untraced and the second half traced and reports the
// difference of the median latencies the two passes return as
// trace.overhead_pct. measure sets the metrics of an untraced pass only
// when rec is nil.
func (r *runner) phases(measure func(d time.Duration, rec *Recorder) (p50ns float64, err error)) error {
	d := r.cfg.duration()
	if !r.cfg.Trace {
		_, err := measure(d, nil)
		return err
	}
	base, err := measure(d/2, nil)
	if err != nil {
		return err
	}
	traced, err := measure(d/2, r.rec)
	if err != nil {
		return err
	}
	if base > 0 {
		r.set("trace.overhead_pct", (traced/base-1)*100, 2)
	}
	return nil
}

// meter measures the wall and CPU time of one measuring loop.
type meter struct {
	wall time.Time
	cpu  time.Duration
}

func startMeter() meter { return meter{time.Now(), cpuTime()} }

// throughput sets ops_per_cpu_s and its wall-time counterparts for ops
// operations completed since m started.
func (r *runner) throughput(m meter, ops int) {
	r.setThroughput(ops, time.Since(m.wall), cpuTime()-m.cpu)
}

func (r *runner) setThroughput(ops int, wall, cpu time.Duration) {
	r.set("ops_per_cpu_s", float64(ops)/cpu.Seconds(), ops)
	r.set("runtime.ops_per_wall_s", float64(ops)/wall.Seconds(), ops)
	r.set("runtime.cpu_per_wall", cpu.Seconds()/wall.Seconds(), 1)
}

// call runs fn as the span name under parent and returns its wall time.
func (r *runner) call(name string, parent int32, fn func() error) (time.Duration, error) {
	id := r.rec.Begin(name, parent, 0)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	r.rec.End(id)
	return d, err
}

// settleMem collects garbage and folds the live heap into memPeak. It runs
// at the end of set-up and of measuring: a live heap sampled between
// collections would depend on when the last one happened to run.
func (r *runner) settleMem() {
	runtime.GC()
	metrics.Read(r.rt[:1])
	r.memPeak = max(r.memPeak, r.rt[0].Value.Uint64())
}

// allocBytes returns the bytes allocated on the heap so far.
func (r *runner) allocBytes() uint64 {
	metrics.Read(r.rt[1:])
	return r.rt[1].Value.Uint64()
}

// cpuTime returns the user and system CPU time the process has used. On a
// shared virtual machine the host takes the processor away for tens of
// milliseconds at a time; CPU time leaves those stalls out, wall time does
// not.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("bench: getrusage: " + err.Error()) // fails only for an invalid who
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
