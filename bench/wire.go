package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"busytime"
	"busytime/internal/generator"
	"busytime/internal/server"
)

// Wire-pipelined load shape. Each of wireConns connections serves
// wireTenants tenants in rounds: one run of wireRun place frames to each
// tenant in turn (the server lands each run as one PlaceBatch), one flush,
// then every reply is read before the next round. A tenant also gets a
// stats frame after every wireStatsRuns of its runs.
const (
	wireConns     = 2
	wireTenants   = 4
	wireRun       = 16
	wireStatsRuns = 64      // one stats frame per 1024 placements of a tenant
	wireLive      = 64      // live jobs of each tenant's arrival stream
	wireStreamLen = 1 << 16 // arrivals generated; tenants replay them time-shifted
)

// opStatsOK is the data plane's reply opcode to a stats frame, as the wire
// protocol in internal/server documents it.
const opStatsOK = 0x84

// wireRig is one running daemon plus the arrival stream its tenants replay.
type wireRig struct {
	r      *runner
	srv    *server.Server
	addr   string
	stream []generator.StreamJob
	period float64 // time shift between two replays of the stream
	phases int     // phases run so far; each opens fresh tenant keys

	frames, rejects uint64 // server counters summed over the phases
}

// job returns a tenant's i-th arrival: the stream replayed over and over,
// each replay shifted past the last so that starts never decrease.
func (w *wireRig) job(i int) generator.StreamJob {
	j := w.stream[i%len(w.stream)]
	shift := float64(i/len(w.stream)) * w.period
	j.Iv.Start += shift
	j.Iv.End += shift
	return j
}

// wireConn is one connection of a phase, driven by one goroutine.
type wireConn struct {
	cl      *server.Client
	handles [wireTenants]uint32
	runs    int      // runs sent to each tenant so far
	lat     *Samples // flush → reply, per place frame
	placed  int
	failed  int
	ratio   float64 // mean ratio of the tenants after the ratio run
	err     error
}

// wirePhase is the outcome of one pipelined phase.
type wirePhase struct {
	placed, failed   int
	lat              *Samples
	wall, cpu        time.Duration
	serviceNs, ratio float64
}

func wirePipelined(r *runner) error {
	var (
		rig     *wireRig
		servers []*server.Server
		gen     []time.Duration
	)
	defer func() { // the daemons of earlier set-ups sit idle until then
		for _, s := range servers {
			shutdown(s)
		}
	}()
	err := r.setup(func(root int32) error {
		var (
			d   time.Duration
			err error
		)
		if rig, d, err = newWireRig(r, root); err != nil {
			return err
		}
		servers = append(servers, rig.srv)
		gen = append(gen, d)
		_, err = rig.pipeline(0, r.sz.wireWarmRuns, nil) // connections, sessions and buffers in place
		return err
	})
	if err != nil {
		return err
	}
	r.set("scenario.generate_ms", median(durMS(gen)), len(gen))

	err = r.phases(func(d time.Duration, rec *Recorder) (float64, error) {
		if rec != nil {
			ph, err := rig.pipeline(d/2, 0, rec)
			if err != nil {
				return 0, err
			}
			per, err := rig.placeBatchLeg(d/2, rec)
			if err != nil {
				return 0, err
			}
			pct := per.Percentiles(0.5, 0.99)
			r.set("pool.placebatch_ns_per_item_p50", pct[0], per.Kept())
			r.set("pool.placebatch_ns_per_item_p99", pct[1], per.Kept())
			return ph.lat.Percentiles(0.5)[0], nil
		}
		ph, err := rig.pipeline(d, r.sz.wireRatioRuns, nil)
		if err != nil {
			return 0, err
		}
		r.setThroughput(ph.placed, ph.wall, ph.cpu)
		pct := ph.lat.Percentiles(0.5, 0.99)
		r.set("lat_us_p50", pct[0]/1e3, ph.lat.Kept())
		r.set("lat_us_p99", pct[1]/1e3, ph.lat.Kept())
		r.set("cost_ratio", ph.ratio, wireConns*wireTenants)
		r.set("server.service_us_mean", ph.serviceNs/1e3, ph.placed)
		r.set("wire.transport_us", (ph.lat.Mean()-ph.serviceNs)/1e3, ph.placed)
		r.set("server.frames", float64(rig.frames), 1)
		r.set("server.rejects", float64(rig.rejects), 1)
		return pct[0], nil
	})
	if err != nil {
		return err
	}
	r.settleMem()
	return nil
}

// newWireRig generates the arrival stream and starts a daemon on a
// loopback port; it returns the generation time too.
func newWireRig(r *runner, root int32) (*wireRig, time.Duration, error) {
	var stream []generator.StreamJob
	d, _ := r.call("generate", root, func() error {
		stream = generator.Stream(r.cfg.Seed, wireStreamLen, wireLive, 1)
		return nil
	})
	srv, err := server.New(server.Config{DataAddr: "127.0.0.1:0", G: 4, Policy: "firstfit"})
	if err != nil {
		return nil, d, err
	}
	if err := srv.Start(); err != nil {
		return nil, d, err
	}
	return &wireRig{
		r:      r,
		srv:    srv,
		addr:   srv.DataAddr().String(),
		stream: stream,
		period: stream[len(stream)-1].Iv.Start + 1,
	}, d, nil
}

// shutdown drains a daemon and waits for its goroutines.
func shutdown(s *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx) // only the control plane reports errors, and it is off
}

// pipeline runs one phase under fresh tenant keys: a session accepts
// starts in non-decreasing order only, so replaying the stream to a tenant
// that has already seen it is rejected frame by frame.
func (w *wireRig) pipeline(d time.Duration, minRuns int, rec *Recorder) (*wirePhase, error) {
	w.phases++
	return w.pipelineAs(fmt.Sprintf("p%d", w.phases), d, minRuns, rec)
}

// pipelineAs runs one phase with tenant keys under prefix: wireConns
// connections in parallel, each sending rounds until d has passed and each
// of its tenants has had minRuns runs. After the phase the daemon's own
// accounting must match what the client saw.
func (w *wireRig) pipelineAs(prefix string, d time.Duration, minRuns int, rec *Recorder) (*wirePhase, error) {
	before := w.srv.StatsSnapshot()
	var conns []*wireConn
	defer func() {
		for _, wc := range conns {
			wc.cl.Close()
		}
	}()
	for c := range wireConns {
		cl, err := server.Dial(w.addr)
		if err != nil {
			return nil, err
		}
		wc := &wireConn{cl: cl, lat: NewSamples(w.r.sz.keep / wireConns)}
		conns = append(conns, wc)
		for t := range wc.handles {
			if wc.handles[t], err = cl.Open(fmt.Sprintf("%s.c%d.t%d", prefix, c, t)); err != nil {
				return nil, err
			}
		}
	}
	m := startMeter()
	var wg sync.WaitGroup
	for c, wc := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc.err = wc.drive(w, int64(c), m.wall, d, minRuns, rec)
		}()
	}
	wg.Wait()
	ph := &wirePhase{lat: NewSamples(w.r.sz.keep), wall: time.Since(m.wall), cpu: cpuTime() - m.cpu}
	for _, wc := range conns {
		ph.placed += wc.placed
		ph.failed += wc.failed
		ph.lat.Merge(wc.lat)
		ph.ratio += wc.ratio / wireConns
	}
	w.r.attempted += ph.placed + ph.failed
	w.r.failed += ph.failed
	for _, wc := range conns {
		if wc.err != nil {
			return nil, wc.err
		}
	}
	return ph, w.reconcile(conns, before, ph)
}

// drive sends rounds on one connection. Connection c's rounds are
// numbered c, c+wireConns, ... so that traced requests are told apart.
func (wc *wireConn) drive(w *wireRig, c int64, start time.Time, d time.Duration, minRuns int, rec *Recorder) error {
	var stats [wireTenants]bool // tenant t gets a stats frame this round
	ratioRuns := w.r.sz.wireRatioRuns
	for round := c; wc.runs < minRuns || time.Since(start) < d; round += wireConns {
		root, send := int32(-1), int32(-1)
		if rec.Sampled(round/wireConns, 64) {
			root = rec.Begin("request", -1, round)
			send = rec.Begin("send_flush", root, round)
		}
		first := wc.runs * wireRun
		wc.runs++
		for t, h := range wc.handles {
			for i := first; i < first+wireRun; i++ {
				j := w.job(i)
				if err := wc.cl.SendPlace(h, j.Iv.Start, j.Iv.End, j.Demand); err != nil {
					return err
				}
			}
			stats[t] = wc.runs%wireStatsRuns == 0 || wc.runs == ratioRuns
			if stats[t] {
				if err := wc.cl.SendStats(h); err != nil {
					return err
				}
			}
		}
		t0 := time.Now()
		if err := wc.cl.Flush(); err != nil {
			return err
		}
		rec.End(send)
		for t := range wc.handles {
			for range wireRun {
				id := int32(-1)
				if root >= 0 {
					id = rec.Begin("read_reply", root, round)
				}
				rep, err := wc.cl.ReadReply()
				rec.End(id)
				if err != nil {
					return err
				}
				switch {
				case rep.IsPlaced():
					wc.placed++
					wc.lat.AddDuration(time.Since(t0))
				case rep.IsReject():
					wc.failed++ // the run fails once the phase ends
				default:
					return fmt.Errorf("place reply op %#x (%s)", rep.Op, rep.Payload)
				}
			}
			if stats[t] {
				if err := wc.readStats(wc.runs == ratioRuns); err != nil {
					return err
				}
			}
		}
		rec.End(root)
	}
	return nil
}

// readStats reads one stats reply; at the ratio run it also folds the
// tenant's competitive ratio into wc.ratio. Every tenant replays the same
// arrivals, so that ratio is the same on every run of a seed.
func (wc *wireConn) readStats(ratio bool) error {
	rep, err := wc.cl.ReadReply()
	if err != nil {
		return err
	}
	if rep.Op != opStatsOK {
		return fmt.Errorf("stats reply op %#x (%s)", rep.Op, rep.Payload)
	}
	if !ratio {
		return nil
	}
	var st busytime.OnlineStats
	if err := json.Unmarshal(rep.Payload, &st); err != nil {
		return fmt.Errorf("decoding tenant stats: %w", err)
	}
	wc.ratio += st.Ratio / wireTenants
	return nil
}

// reconcile checks a phase against the daemon's own accounting: the
// tenants' sessions and the server's counters must hold exactly the
// placements the client saw.
func (w *wireRig) reconcile(conns []*wireConn, before server.StatsSnapshot, ph *wirePhase) error {
	var placed uint64
	for _, wc := range conns {
		for _, h := range wc.handles {
			st, err := wc.cl.Stats(h)
			if err != nil {
				return err
			}
			placed += st.Placed
		}
	}
	after := w.srv.StatsSnapshot()
	if accepted := after.Accepted - before.Accepted; placed != uint64(ph.placed) || accepted != uint64(ph.placed) {
		return fmt.Errorf("client saw %d placements, tenant stats sum to %d, server accepted %d",
			ph.placed, placed, accepted)
	}
	if dn := after.Place.Count - before.Place.Count; dn > 0 {
		sum := float64(after.Place.Mean)*float64(after.Place.Count) - float64(before.Place.Mean)*float64(before.Place.Count)
		ph.serviceNs = sum / float64(dn)
	}
	rejects := func(s server.StatsSnapshot) uint64 {
		return s.Rejected.Rate + s.Rejected.Live + s.Rejected.Shutdown + s.Rejected.Invalid
	}
	w.frames += after.Frames - before.Frames
	w.rejects += rejects(after) - rejects(before)
	return nil
}

// placeBatchLeg replays the phase's batches straight into an OnlinePool,
// without the daemon: runs of wireRun arrivals, tenants in turn. It returns
// the time per arrival of each PlaceBatch call.
func (w *wireRig) placeBatchLeg(d time.Duration, rec *Recorder) (*Samples, error) {
	solver, err := busytime.New()
	if err != nil {
		return nil, err
	}
	pool, err := solver.OnlinePool(4, "firstfit")
	if err != nil {
		return nil, err
	}
	defer pool.Close()
	var tenants [wireConns * wireTenants]string
	for t := range tenants {
		tenants[t] = fmt.Sprintf("direct.t%d", t)
	}
	reqs := make([]busytime.PlaceRequest, wireRun)
	out := make([]busytime.PlaceResult, wireRun)
	per := NewSamples(w.r.sz.keep)
	start := time.Now()
	for b := 0; b == 0 || time.Since(start) < d; b++ {
		first := b / len(tenants) * wireRun
		for k := range reqs {
			j := w.job(first + k)
			reqs[k] = busytime.PlaceRequest{Iv: j.Iv, Demand: j.Demand}
		}
		id := int32(-1)
		if rec.Sampled(int64(b), 64) {
			id = rec.Begin("placebatch", -1, int64(b))
		}
		t0 := time.Now()
		err := pool.PlaceBatch(tenants[b%len(tenants)], reqs, out)
		el := time.Since(t0)
		rec.End(id)
		if err != nil {
			return nil, err
		}
		per.Add(int64(el) / wireRun)
		for _, o := range out {
			w.r.attempted++
			if o.Err != nil {
				w.r.failed++
				return nil, fmt.Errorf("direct PlaceBatch: %w", o.Err)
			}
		}
	}
	return per, nil
}
