package core

import (
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	"busytime/internal/interval"
)

// jobJSON is the wire form of a Job. Demand is omitted when 1.
type jobJSON struct {
	ID     int     `json:"id"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Demand int     `json:"demand,omitempty"`
}

// instanceJSON is the wire form of an Instance.
type instanceJSON struct {
	Name string    `json:"name,omitempty"`
	G    int       `json:"g"`
	Jobs []jobJSON `json:"jobs"`
}

// MarshalJSON implements json.Marshaler for Instance.
func (in *Instance) MarshalJSON() ([]byte, error) {
	w := instanceJSON{Name: in.Name, G: in.G, Jobs: make([]jobJSON, len(in.Jobs))}
	for i, j := range in.Jobs {
		d := j.Demand
		if d == 1 {
			d = 0 // omitempty
		}
		w.Jobs[i] = jobJSON{ID: j.ID, Start: j.Iv.Start, End: j.Iv.End, Demand: d}
	}
	return json.Marshal(w)
}

// UnmarshalJSON implements json.Unmarshaler for Instance. Missing demands
// default to 1; the decoded instance is validated.
func (in *Instance) UnmarshalJSON(data []byte) error {
	var w instanceJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("core: decoding instance: %w", err)
	}
	dec := Instance{Name: w.Name, G: w.G, Jobs: make([]Job, len(w.Jobs))}
	for i, j := range w.Jobs {
		if j.End < j.Start {
			return fmt.Errorf("core: job %d has end %v < start %v", j.ID, j.End, j.Start)
		}
		d := j.Demand
		if d == 0 {
			d = 1
		}
		dec.Jobs[i] = Job{ID: j.ID, Iv: interval.New(j.Start, j.End), Demand: d}
	}
	if err := dec.Validate(); err != nil {
		return err
	}
	*in = dec
	return nil
}

// WriteInstance encodes the instance as indented JSON to w.
func WriteInstance(w io.Writer, in *Instance) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(in)
}

// ReadInstance decodes an instance from JSON.
func ReadInstance(r io.Reader) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, err
	}
	return &in, nil
}

// Typed parse errors of the CSV reader, following the daemon data plane's
// convention of splitting data errors from framing errors: a row whose
// values are malformed — an unparsable number, a non-finite or reversed
// interval — is a data problem and surfaces as one of these sentinels
// (match with errors.Is), while a structurally broken CSV stream keeps
// surfacing as the csv package's own framing error.
var (
	// ErrBadValue marks a field that failed to parse as its column's type
	// (id, g or demand not an integer, start or end not a float).
	ErrBadValue = errors.New("core: bad field value")
	// ErrBadInterval marks a job whose interval no schedule could hold:
	// a NaN or infinite endpoint, or end < start.
	ErrBadInterval = errors.New("core: invalid interval")
)

// WriteInstanceCSV writes the instance as CSV, one job per row
// (id,start,end,demand) under a header row. The parallelism g is carried in
// a leading comment-like row ("#g", value) so a round trip is lossless; the
// name is not carried.
func WriteInstanceCSV(w io.Writer, in *Instance) error {
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

// ReadInstanceCSV parses an instance written by WriteInstanceCSV (or
// hand-authored in the same shape). A missing "#g" row falls back to
// defaultG; a missing demand column defaults to 1. Malformed values surface
// as typed errors (ErrBadValue, ErrBadInterval) and the decoded instance is
// validated, so arbitrary input never panics downstream interval or
// schedule construction.
func ReadInstanceCSV(r io.Reader, defaultG int) (*Instance, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	in := &Instance{Name: "csv", G: defaultG}
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("core: reading CSV: %w", err)
	}
	for _, rec := range rows {
		if len(rec) == 0 {
			continue
		}
		switch rec[0] {
		case "#g":
			if len(rec) < 2 {
				return nil, fmt.Errorf("core: #g row missing value")
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
			return nil, fmt.Errorf("core: row %v has %d fields, want ≥ 3", rec, len(rec))
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
		in.Jobs = append(in.Jobs, Job{ID: id, Iv: interval.New(start, end), Demand: demand})
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// scheduleJSON is the wire form of a finished schedule.
type scheduleJSON struct {
	Instance   *Instance   `json:"instance"`
	Assignment map[int]int `json:"assignment"` // Job.ID -> machine
	Machines   int         `json:"machines"`
	Cost       float64     `json:"cost"`
}

// WriteSchedule encodes a verified schedule (with its instance) as JSON.
func WriteSchedule(w io.Writer, s *Schedule) error {
	if err := s.Verify(); err != nil {
		return fmt.Errorf("core: refusing to serialize infeasible schedule: %w", err)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(scheduleJSON{
		Instance:   s.inst,
		Assignment: s.Assignment(),
		Machines:   s.NumMachines(),
		Cost:       s.Cost(),
	})
}

// ReadSchedule decodes a schedule written by WriteSchedule and verifies it.
func ReadSchedule(r io.Reader) (*Schedule, error) {
	var w scheduleJSON
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, err
	}
	if w.Instance == nil {
		return nil, fmt.Errorf("core: schedule JSON missing instance")
	}
	s, err := FromAssignment(w.Instance, w.Assignment)
	if err != nil {
		return nil, err
	}
	if err := s.Verify(); err != nil {
		return nil, err
	}
	return s, nil
}
