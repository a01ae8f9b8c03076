package bench

import (
	"fmt"
	"math/rand/v2"
	"time"

	"busytime"
	"busytime/internal/scenario"
)

// Online-stream constants: the share of arrivals released early and the
// largest release lag, in arrivals, as the scenario engine's online replay
// uses them.
const (
	releaseFrac = 0.05
	maxLag      = 16
)

// stream feeds a generated instance to one session in arrival order,
// forever: after the last arrival it starts over, shifted by the horizon so
// starts never decrease. Arrival k is the session's feed index k, the
// handle Release takes.
type stream struct {
	sess   *busytime.OnlineSession
	ivs    []busytime.Interval // one pass, in arrival order
	lags   []uint8             // release lag of each arrival of a pass; 0 = none
	period float64
	k      int
}

// releases departs every earlier arrival whose lag falls due at arrival k
// and times each Release.
func (s *stream) releases(lat *Samples, rec *Recorder, parent int32) error {
	n := len(s.ivs)
	for lag := 1; lag <= maxLag && lag <= s.k; lag++ {
		f := s.k - lag
		if int(s.lags[f%n]) != lag {
			continue
		}
		id := rec.Begin("release", parent, int64(s.k))
		t0 := time.Now()
		_, err := s.sess.Release(f)
		el := time.Since(t0)
		rec.End(id)
		if err != nil {
			return fmt.Errorf("release of arrival %d: %w", f, err)
		}
		if lat != nil {
			lat.AddDuration(el)
		}
	}
	return nil
}

// next returns arrival k's interval.
func (s *stream) next() busytime.Interval {
	n := len(s.ivs)
	iv := s.ivs[s.k%n]
	shift := float64(s.k/n) * s.period
	return busytime.Interval{Start: iv.Start + shift, End: iv.End + shift}
}

func onlineStream(r *runner) error {
	const horizon = 240 // diurnal's default: ten simulated days
	sc, ok := scenario.Lookup("diurnal")
	if !ok {
		return fmt.Errorf("no diurnal scenario")
	}
	p := scenario.Params{Seed: r.cfg.Seed, N: r.sz.onlineN, G: 4, Horizon: horizon, MeanLen: 3}
	var (
		s   *stream
		gen []time.Duration
	)
	err := r.setup(func(root int32) error {
		var in *busytime.Instance
		d, err := r.call("generate", root, func() (err error) {
			in, err = sc.Instance(p)
			return err
		})
		if err != nil {
			return err
		}
		gen = append(gen, d)
		s = &stream{
			period: horizon,
			ivs:    make([]busytime.Interval, 0, in.N()),
			lags:   make([]uint8, 0, in.N()),
		}
		rng := rand.New(rand.NewPCG(uint64(r.cfg.Seed), 0x5eed))
		for _, j := range in.StartOrder() {
			s.ivs = append(s.ivs, in.Jobs[j].Iv)
			lag := uint8(0)
			if rng.Float64() < releaseFrac {
				lag = uint8(1 + rng.IntN(maxLag))
			}
			s.lags = append(s.lags, lag)
		}
		solver, err := busytime.New()
		if err != nil {
			return err
		}
		if s.sess, err = solver.Online(in.G, "firstfit"); err != nil {
			return err
		}
		// Warm up over the first simulated day, so measuring starts with
		// the live population at its steady level.
		for s.k < len(s.ivs)/10 {
			if err := s.releases(nil, nil, -1); err != nil {
				return err
			}
			r.attempted++
			if _, err := s.sess.Place(s.next()); err != nil {
				r.failed++
				return fmt.Errorf("warm-up arrival %d: %w", s.k, err)
			}
			s.k++
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.set("scenario.generate_ms", median(durMS(gen)), len(gen))

	n := len(s.ivs)
	ratio := 0.0 // the session's ratio after exactly one pass: the same on every run
	err = r.phases(func(d time.Duration, rec *Recorder) (float64, error) {
		lat, rel := NewSamples(r.sz.keep), NewSamples(r.sz.keep)
		m := startMeter()
		for {
			// Only sampled arrivals are traced, with their releases.
			var arec *Recorder
			root := int32(-1)
			if rec.Sampled(int64(s.k), 64) {
				arec = rec
				root = rec.Begin("request", -1, int64(s.k))
			}
			if err := s.releases(rel, arec, root); err != nil {
				return 0, err
			}
			iv := s.next()
			id := arec.Begin("place", root, int64(s.k))
			t0 := time.Now()
			_, err := s.sess.Place(iv)
			t1 := time.Now()
			rec.End(id)
			rec.End(root)
			r.attempted++
			if err != nil {
				r.failed++
				return 0, fmt.Errorf("arrival %d: %w", s.k, err)
			}
			lat.AddDuration(t1.Sub(t0))
			s.k++
			if s.k == n {
				ratio = s.sess.Stats().Ratio
			}
			if t1.Sub(m.wall) >= d && s.k >= n {
				break
			}
		}
		if rec != nil {
			return lat.Percentiles(0.5)[0], nil
		}
		r.throughput(m, lat.Count())
		pct := lat.Percentiles(0.5, 0.99, 0.9999)
		rp := rel.Percentiles(0.5, 0.99)
		st := s.sess.Stats()
		r.set("lat_us_p50", pct[0]/1e3, lat.Kept())
		r.set("lat_us_p99", pct[1]/1e3, lat.Kept())
		r.set("cost_ratio", ratio, n)
		r.set("session.place_ns_p50", pct[0], lat.Kept())
		r.set("session.place_ns_p99", pct[1], lat.Kept())
		r.set("session.place_ns_p9999", pct[2], lat.Kept())
		r.set("session.release_ns_p50", rp[0], rel.Kept())
		r.set("session.release_ns_p99", rp[1], rel.Kept())
		r.set("session.machines", float64(st.Machines), 1)
		r.set("session.peak_live", float64(st.PeakLive), 1)
		r.set("session.window_cap", float64(st.WindowCap), 1)
		r.set("session.compactions", float64(st.Compactions), 1)
		return pct[0], nil
	})
	if err != nil {
		return err
	}
	r.settleMem()

	root := r.rec.Begin("verify", -1, 0)
	defer r.rec.End(root)
	if st := s.sess.Stats(); st.Placed != uint64(s.k) {
		return fmt.Errorf("session placed %d arrivals, fed %d", st.Placed, s.k)
	}
	var res busytime.Result
	d, err := r.call("crosscheck", root, func() (err error) {
		if res, err = s.sess.Result(); err != nil {
			return err
		}
		return res.CrossCheck(1e-6)
	})
	if err != nil {
		return fmt.Errorf("window snapshot: %w", err)
	}
	r.set("sim.crosscheck_ms", ms(d), 1)
	return nil
}
