package scenario

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"busytime"
	"busytime/internal/core"
	"busytime/internal/stats"
	"busytime/internal/xrand"
)

// Mode selects which replay paths a Run drives; modes compose as a bitmask.
type Mode uint8

// Replay modes.
const (
	// ModeOffline solves the complete instance through Solver.Solve.
	ModeOffline Mode = 1 << iota
	// ModeOnline feeds arrivals one at a time through a rolling-horizon
	// session, with an early-release mix.
	ModeOnline
	// ModeWire replays the stream over the framed data plane against a
	// running busyschedd at Config.Addr.
	ModeWire
)

// ParseModes parses a comma-separated mode list ("offline,online,wire").
func ParseModes(s string) (Mode, error) {
	var m Mode
	for _, f := range strings.Split(s, ",") {
		switch f {
		case "offline":
			m |= ModeOffline
		case "online":
			m |= ModeOnline
		case "wire":
			m |= ModeWire
		default:
			return 0, fmt.Errorf("scenario: unknown mode %q (want offline, online or wire)", f)
		}
	}
	return m, nil
}

// Config steers one driver Run across the enabled modes.
type Config struct {
	// Modes is the replay-path bitmask; zero means offline|online.
	Modes Mode
	// Algorithm is the offline solve algorithm (default "bestfit").
	Algorithm string
	// Policy is the online/wire arrival policy (default "firstfit").
	Policy string
	// Addr is the busyschedd data-plane address; required for ModeWire.
	Addr string
	// Tenant keys the wire session (default "replay").
	Tenant string
	// ReleaseFrac is the fraction of online arrivals departed early, a lag
	// of a few arrivals after placement (deterministic in the seed).
	ReleaseFrac float64
	// Repeat re-solves the offline instance this many times so the solve
	// latency histogram has percentiles, not a point (default 1).
	Repeat int
	// CheckTol is the relative tolerance of the billing cross-check
	// (default 1e-6): |simulated − analytic| ≤ tol·max(1, |analytic|).
	CheckTol float64
}

func (c Config) withDefaults() Config {
	if c.Modes == 0 {
		c.Modes = ModeOffline | ModeOnline
	}
	if c.Algorithm == "" {
		c.Algorithm = "bestfit"
	}
	if c.Policy == "" {
		c.Policy = "firstfit"
	}
	if c.Tenant == "" {
		c.Tenant = "replay"
	}
	if c.Repeat < 1 {
		c.Repeat = 1
	}
	if c.CheckTol <= 0 {
		c.CheckTol = 1e-6
	}
	return c
}

// OfflineReport is the offline replay's outcome: the solved schedule's
// economics plus per-solve latency percentiles over Config.Repeat solves.
type OfflineReport struct {
	Algorithm  string            `json:"algorithm"`
	Machines   int               `json:"machines"`
	Cost       float64           `json:"cost"`
	LowerBound float64           `json:"lower_bound"`
	Gap        float64           `json:"gap"`
	Ratio      float64           `json:"ratio"`
	Solves     int               `json:"solves"`
	Latency    stats.HistSummary `json:"solve_latency"`
	// CrossChecked records that the discrete-event replay of the schedule
	// billed exactly the analytic cost (Run fails otherwise, so a written
	// report always carries true).
	CrossChecked bool `json:"cross_checked"`
}

// OnlineReport is the rolling-horizon replay's outcome: the session's
// stream-lifetime stats (including the live competitive ratio) plus
// per-Place latency percentiles.
type OnlineReport struct {
	Policy       string               `json:"policy"`
	Released     int                  `json:"released_early"`
	Stats        busytime.OnlineStats `json:"stats"`
	Latency      stats.HistSummary    `json:"place_latency"`
	CrossChecked bool                 `json:"cross_checked"`
}

// WireReport is the data-plane replay's outcome: placement/reject counts as
// the client saw them, the server's own per-tenant stats echoed back over
// the final stats frame, and per-batch round-trip latency percentiles
// (frames are pipelined in batches, so per-frame latency is not observable
// from the client).
type WireReport struct {
	Addr      string               `json:"addr"`
	Tenant    string               `json:"tenant"`
	Placed    int                  `json:"placed"`
	Rejected  int                  `json:"rejected"`
	BatchSize int                  `json:"batch_size"`
	Stats     busytime.OnlineStats `json:"server_stats"`
	Latency   stats.HistSummary    `json:"batch_latency"`
}

// Report is one scenario run across the enabled modes.
type Report struct {
	Scenario string        `json:"scenario"`
	Params   Params        `json:"params"`
	Jobs     int           `json:"jobs"`
	G        int           `json:"g"`
	GenTime  time.Duration `json:"gen_ns"`

	Offline *OfflineReport `json:"offline,omitempty"`
	Online  *OnlineReport  `json:"online,omitempty"`
	Wire    *WireReport    `json:"wire,omitempty"`
	// Metrics carries the scenario's own cross-check numbers (optical
	// wavelength and regenerator counts, and the like).
	Metrics []Metric `json:"metrics,omitempty"`
}

// Run replays the scenario under the merged params through every enabled
// mode and returns the combined report. Any mode failing — including a
// billing cross-check disagreement — fails the Run.
func Run(ctx context.Context, cfg Config, sc Scenario, p Params) (*Report, error) {
	cfg = cfg.withDefaults()
	p = p.merged(sc.Defaults)
	t0 := time.Now()
	in, err := sc.Instance(p)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Scenario: sc.Name,
		Params:   p,
		Jobs:     in.N(),
		G:        in.G,
		GenTime:  time.Since(t0),
	}
	if cfg.Modes&ModeOffline != 0 {
		off, sched, err := runOffline(ctx, cfg, in)
		if err != nil {
			return nil, fmt.Errorf("scenario %q offline: %w", sc.Name, err)
		}
		rep.Offline = off
		if sc.Check != nil {
			metrics, err := sc.Check(p, in, sched)
			if err != nil {
				return nil, fmt.Errorf("scenario %q check: %w", sc.Name, err)
			}
			rep.Metrics = metrics
		}
	}
	if cfg.Modes&ModeOnline != 0 {
		on, err := runOnline(cfg, p, in)
		if err != nil {
			return nil, fmt.Errorf("scenario %q online: %w", sc.Name, err)
		}
		rep.Online = on
	}
	if cfg.Modes&ModeWire != 0 {
		w, err := runWire(cfg, in)
		if err != nil {
			return nil, fmt.Errorf("scenario %q wire: %w", sc.Name, err)
		}
		rep.Wire = w
	}
	return rep, nil
}

// runOffline solves the full instance Repeat times on one warm Solver (the
// first solve pays arena setup, the rest ride it — exactly the shape the
// latency histogram should show), cross-checks the final schedule against
// the discrete-event simulator, and returns the report plus the schedule
// for the scenario's own Check. The schedule lives in the solver's arena;
// it stays valid because the solver is not used again.
func runOffline(ctx context.Context, cfg Config, in *core.Instance) (*OfflineReport, *core.Schedule, error) {
	solver, err := busytime.New(busytime.WithAlgorithm(cfg.Algorithm))
	if err != nil {
		return nil, nil, err
	}
	var res busytime.Result
	var h stats.Hist
	for i := 0; i < cfg.Repeat; i++ {
		t0 := time.Now()
		res, err = solver.Solve(ctx, in)
		if err != nil {
			return nil, nil, err
		}
		h.Observe(time.Since(t0))
	}
	if err := res.CrossCheck(cfg.CheckTol); err != nil {
		return nil, nil, err
	}
	return &OfflineReport{
		Algorithm:    res.Algorithm,
		Machines:     res.Machines,
		Cost:         res.Cost,
		LowerBound:   res.LowerBound(),
		Gap:          res.Gap(),
		Ratio:        res.Ratio(),
		Solves:       cfg.Repeat,
		Latency:      h.Summary(),
		CrossChecked: true,
	}, res.Schedule, nil
}

// runOnline feeds the stream through a rolling-horizon session in the
// instance's start order, the order the online-* rows place in, so with no
// early releases the session bills exactly the matching row's cost. A
// ReleaseFrac slice of arrivals departs early: each is scheduled,
// deterministically in the seed, for release a few arrivals after its
// placement — mimicking cancel-before-complete churn. The session's
// retained window is snapshotted at the end and cross-checked against the
// simulator.
func runOnline(cfg Config, p Params, in *core.Instance) (*OnlineReport, error) {
	solver, err := busytime.New()
	if err != nil {
		return nil, err
	}
	sess, err := solver.Online(in.G, cfg.Policy)
	if err != nil {
		return nil, err
	}
	// due[k] lists feed indices to release just before arrival k.
	r := xrand.Shard(p.Seed, genChunks+1)
	due := map[int][]int{}
	released := 0
	var h stats.Hist
	order := in.StartOrder()
	for k, j := range order {
		for _, feed := range due[k] {
			if ok, err := sess.Release(feed); err != nil {
				return nil, err
			} else if ok {
				released++
			}
		}
		delete(due, k)
		job := in.Jobs[j]
		t0 := time.Now()
		_, err := sess.PlaceDemand(busytime.Interval{Start: job.Iv.Start, End: job.Iv.End}, job.Demand)
		if err != nil {
			return nil, err
		}
		h.Observe(time.Since(t0))
		if cfg.ReleaseFrac > 0 && r.Float64() < cfg.ReleaseFrac {
			lag := 1 + r.Intn(16)
			at := k + lag
			if at < len(order) {
				due[at] = append(due[at], k)
			}
		}
	}
	res, err := sess.Result()
	if err != nil {
		return nil, err
	}
	if err := res.CrossCheck(cfg.CheckTol); err != nil {
		return nil, fmt.Errorf("window snapshot: %w", err)
	}
	return &OnlineReport{
		Policy:       cfg.Policy,
		Released:     released,
		Stats:        sess.Stats(),
		Latency:      h.Summary(),
		CrossChecked: true,
	}, nil
}

// WriteReportsCSV writes one flat row per report — the shape sweep scripts
// and spreadsheets want; richer per-mode detail is in the JSON encoding.
func WriteReportsCSV(w io.Writer, reports []*Report) error {
	cw := csv.NewWriter(w)
	header := []string{
		"scenario", "seed", "jobs", "g", "gen_ms",
		"algorithm", "machines", "cost", "lower_bound", "ratio", "solve_p50_ms",
		"policy", "online_cost", "online_ratio", "place_p99_us",
		"wire_placed", "wire_rejected",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	ms := func(d time.Duration) string {
		return strconv.FormatFloat(float64(d)/1e6, 'g', 6, 64)
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range reports {
		row := []string{r.Scenario, strconv.FormatInt(r.Params.Seed, 10),
			strconv.Itoa(r.Jobs), strconv.Itoa(r.G), ms(r.GenTime)}
		if o := r.Offline; o != nil {
			row = append(row, o.Algorithm, strconv.Itoa(o.Machines), f(o.Cost),
				f(o.LowerBound), f(o.Ratio), ms(o.Latency.P50))
		} else {
			row = append(row, "", "", "", "", "", "")
		}
		if o := r.Online; o != nil {
			row = append(row, o.Policy, f(o.Stats.Cost), f(o.Stats.Ratio),
				strconv.FormatFloat(float64(o.Latency.P99)/1e3, 'g', 6, 64))
		} else {
			row = append(row, "", "", "", "")
		}
		if o := r.Wire; o != nil {
			row = append(row, strconv.Itoa(o.Placed), strconv.Itoa(o.Rejected))
		} else {
			row = append(row, "", "")
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
