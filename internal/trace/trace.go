// Package trace provides workload-trace interchange and arrival-process
// generators beyond the uniform families in internal/generator:
//
//   - CSV reading/writing of instances (one job per row: id,start,end,demand)
//     for interoperability with spreadsheet- or script-produced traces;
//   - a homogeneous Poisson arrival process with exponential durations (the
//     standard stochastic model for service requests);
//   - a diurnal (day/night) non-homogeneous Poisson process via thinning,
//     modeling the load pattern of VM-consolidation workloads.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"

	"busytime/internal/core"
	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// Typed parse errors of the CSV reader, following the daemon data plane's
// convention of splitting data errors from framing errors: a row whose
// values are malformed — an unparsable number, a non-finite or reversed
// interval — is a data problem and surfaces as one of these sentinels
// (match with errors.Is), while a structurally broken CSV stream keeps
// surfacing as the csv package's own framing error.
var (
	// ErrBadValue marks a field that failed to parse as its column's type
	// (id, g or demand not an integer, start or end not a float).
	ErrBadValue = errors.New("trace: bad field value")
	// ErrBadInterval marks a job whose interval no schedule could hold:
	// a NaN or infinite endpoint, or end < start.
	ErrBadInterval = errors.New("trace: invalid interval")
)

// WriteCSV writes the instance as CSV with a header row. The parallelism g
// is carried in a leading comment-like row ("#g", value) so a round trip is
// lossless.
func WriteCSV(w io.Writer, in *core.Instance) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"#g", strconv.Itoa(in.G)}); err != nil {
		return err
	}
	if err := cw.Write([]string{"id", "start", "end", "demand"}); err != nil {
		return err
	}
	for _, j := range in.Jobs {
		rec := []string{
			strconv.Itoa(j.ID),
			strconv.FormatFloat(j.Iv.Start, 'g', -1, 64),
			strconv.FormatFloat(j.Iv.End, 'g', -1, 64),
			strconv.Itoa(j.Demand),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses an instance written by WriteCSV (or hand-authored in the
// same shape). A missing "#g" row falls back to the provided defaultG; a
// missing demand column defaults to 1. Malformed values surface as typed
// errors (ErrBadValue, ErrBadInterval) and the decoded instance is
// validated, so arbitrary input never panics downstream interval or
// schedule construction.
func ReadCSV(r io.Reader, defaultG int) (*core.Instance, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	in := &core.Instance{Name: "csv", G: defaultG}
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV: %w", err)
	}
	for _, rec := range rows {
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case "#g":
			if len(rec) < 2 {
				return nil, fmt.Errorf("trace: #g row missing value")
			}
			g, err := strconv.Atoi(rec[1])
			if err != nil {
				return nil, fmt.Errorf("%w: g %q", ErrBadValue, rec[1])
			}
			in.G = g
			continue
		case "id":
			continue // header
		}
		if len(rec) < 3 {
			return nil, fmt.Errorf("trace: row %v has %d fields, want ≥ 3", rec, len(rec))
		}
		id, err := strconv.Atoi(rec[0])
		if err != nil {
			return nil, fmt.Errorf("%w: id %q", ErrBadValue, rec[0])
		}
		start, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: start %q", ErrBadValue, rec[1])
		}
		end, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%w: end %q", ErrBadValue, rec[2])
		}
		// Checked here, not left to interval.New: NaN and ±Inf parse as valid
		// floats but no schedule can hold them, and interval.New panics on
		// them — a data error must stay an error on arbitrary input.
		if err := interval.Check(start, end); err != nil {
			return nil, fmt.Errorf("%w: job %d: %v: [%v, %v]", ErrBadInterval, id, err, start, end)
		}
		demand := 1
		if len(rec) >= 4 && rec[3] != "" {
			demand, err = strconv.Atoi(rec[3])
			if err != nil {
				return nil, fmt.Errorf("%w: demand %q", ErrBadValue, rec[3])
			}
		}
		in.Jobs = append(in.Jobs, core.Job{ID: id, Iv: interval.New(start, end), Demand: demand})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// Poisson generates jobs arriving as a homogeneous Poisson process of the
// given rate over [0, horizon), with i.i.d. exponential durations of the
// given mean. Deterministic in seed.
func Poisson(seed int64, g int, rate, horizon, meanLen float64) *core.Instance {
	if rate <= 0 || horizon <= 0 || meanLen <= 0 {
		panic("trace: Poisson requires positive rate, horizon and mean length")
	}
	r := xrand.New(seed)
	in := &core.Instance{
		Name: fmt.Sprintf("poisson(seed=%d,rate=%g)", seed, rate),
		G:    g,
	}
	t := r.ExpFloat64() / rate
	id := 0
	for t < horizon {
		length := r.ExpFloat64() * meanLen
		in.Jobs = append(in.Jobs, core.Job{
			ID:     id,
			Iv:     interval.New(t, t+length),
			Demand: 1,
		})
		id++
		t += r.ExpFloat64() / rate
	}
	return in
}

// Diurnal generates a non-homogeneous Poisson process over the given number
// of 24-unit days: the arrival rate swings sinusoidally between baseRate (at
// night, t mod 24 = 0) and peakRate (midday), realized by thinning.
// Durations are exponential with the given mean. Deterministic in seed.
func Diurnal(seed int64, g, days int, baseRate, peakRate, meanLen float64) *core.Instance {
	if days < 1 || baseRate < 0 || peakRate < baseRate || peakRate <= 0 || meanLen <= 0 {
		panic("trace: Diurnal requires days ≥ 1, 0 ≤ baseRate ≤ peakRate, peakRate > 0, meanLen > 0")
	}
	r := xrand.New(seed)
	in := &core.Instance{
		Name: fmt.Sprintf("diurnal(seed=%d,days=%d)", seed, days),
		G:    g,
	}
	horizon := float64(days) * 24
	rate := func(t float64) float64 {
		phase := 0.5 - 0.5*math.Cos(2*math.Pi*math.Mod(t, 24)/24)
		return baseRate + (peakRate-baseRate)*phase
	}
	t := r.ExpFloat64() / peakRate
	id := 0
	for t < horizon {
		if r.Float64() <= rate(t)/peakRate { // thinning acceptance
			length := r.ExpFloat64() * meanLen
			in.Jobs = append(in.Jobs, core.Job{
				ID:     id,
				Iv:     interval.New(t, t+length),
				Demand: 1,
			})
			id++
		}
		t += r.ExpFloat64() / peakRate
	}
	return in
}
