package core

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"busytime/internal/interval"
)

func TestInstanceJSONRoundTrip(t *testing.T) {
	in := NewInstance(3, iv(0, 2.5), iv(1, 3))
	in.Name = "rt"
	in.Jobs[1].Demand = 2
	var buf bytes.Buffer
	if err := WriteInstance(&buf, in); err != nil {
		t.Fatalf("WriteInstance: %v", err)
	}
	got, err := ReadInstance(&buf)
	if err != nil {
		t.Fatalf("ReadInstance: %v", err)
	}
	if got.Name != in.Name || got.G != in.G || got.N() != in.N() {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, in)
	}
	for i := range in.Jobs {
		if got.Jobs[i] != in.Jobs[i] {
			t.Errorf("job %d: %+v != %+v", i, got.Jobs[i], in.Jobs[i])
		}
	}
}

func TestInstanceJSONDefaultDemand(t *testing.T) {
	src := `{"g":2,"jobs":[{"id":0,"start":0,"end":1}]}`
	in, err := ReadInstance(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ReadInstance: %v", err)
	}
	if in.Jobs[0].Demand != 1 {
		t.Errorf("default demand = %d, want 1", in.Jobs[0].Demand)
	}
}

func TestInstanceJSONRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"g":0,"jobs":[]}`,
		`{"g":2,"jobs":[{"id":0,"start":5,"end":1}]}`,
		`{"g":2,"jobs":[{"id":0,"start":0,"end":1,"demand":7}]}`,
		`{not json`,
	}
	for _, src := range cases {
		if _, err := ReadInstance(strings.NewReader(src)); err == nil {
			t.Errorf("accepted invalid instance %q", src)
		}
	}
}

func TestScheduleJSONRoundTrip(t *testing.T) {
	in := NewInstance(2, iv(0, 2), iv(1, 3), iv(4, 5))
	s := NewSchedule(in)
	m := s.AssignNew(0)
	s.Assign(1, m)
	s.Assign(2, m)
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err != nil {
		t.Fatalf("WriteSchedule: %v", err)
	}
	got, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatalf("ReadSchedule: %v", err)
	}
	if got.Cost() != s.Cost() || got.NumMachines() != s.NumMachines() {
		t.Errorf("round trip: cost %v machines %d, want %v/%d",
			got.Cost(), got.NumMachines(), s.Cost(), s.NumMachines())
	}
}

func TestWriteScheduleRejectsInfeasible(t *testing.T) {
	in := NewInstance(1, iv(0, 2), iv(1, 3))
	s := NewSchedule(in)
	m := s.AssignNew(0)
	s.Assign(1, m) // overload
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, s); err == nil {
		t.Error("serialized an infeasible schedule")
	}
}

func TestReadScheduleRejectsBad(t *testing.T) {
	cases := []string{
		`{}`,
		`{"instance":{"g":1,"jobs":[{"id":0,"start":0,"end":2},{"id":1,"start":1,"end":3}]},"assignment":{"0":0,"1":0}}`,
	}
	for _, src := range cases {
		if _, err := ReadSchedule(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad schedule %q", src)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	in := NewInstance(3,
		interval.New(0, 2.5), interval.New(1.25, 4), interval.New(10, 11))
	in.Jobs[1].Demand = 2
	var buf bytes.Buffer
	if err := WriteInstanceCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	got, err := ReadInstanceCSV(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.G != in.G {
		t.Errorf("g = %d, want %d", got.G, in.G)
	}
	if got.N() != in.N() {
		t.Fatalf("n = %d, want %d", got.N(), in.N())
	}
	for i := range in.Jobs {
		if got.Jobs[i] != in.Jobs[i] {
			t.Errorf("job %d: %+v != %+v", i, got.Jobs[i], in.Jobs[i])
		}
	}
}

func TestReadCSVDefaults(t *testing.T) {
	src := "id,start,end,demand\n0,0,1,\n1,2,3\n"
	in, err := ReadInstanceCSV(strings.NewReader(src), 2)
	if err != nil {
		t.Fatal(err)
	}
	if in.G != 2 {
		t.Errorf("defaultG not applied: %d", in.G)
	}
	for _, j := range in.Jobs {
		if j.Demand != 1 {
			t.Errorf("job %d demand %d, want 1", j.ID, j.Demand)
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"id,start,end\nx,0,1\n",
		"id,start,end\n0,z,1\n",
		"id,start,end\n0,0,y\n",
		"id,start,end\n0,5,1\n",
		"id,start,end,demand\n0,0,1,eight\n",
		"#g\n",
		"#g,abc\n",
		"id,start,end\n0,0\n",
		"#g,0\nid,start,end\n0,0,1\n", // invalid g → Validate fails
	}
	for _, src := range cases {
		if _, err := ReadInstanceCSV(strings.NewReader(src), 2); err == nil {
			t.Errorf("accepted bad CSV %q", src)
		}
	}
}

// TestReadCSVTypedErrors pins the error taxonomy: malformed numbers are
// ErrBadValue, non-finite or reversed intervals are ErrBadInterval, and —
// the regression this guards — a NaN endpoint is an error, never a panic
// out of interval.New.
func TestReadCSVTypedErrors(t *testing.T) {
	cases := []struct {
		src  string
		want error
	}{
		{"id,start,end\nx,0,1\n", ErrBadValue},
		{"id,start,end\n0,z,1\n", ErrBadValue},
		{"id,start,end\n0,0,y\n", ErrBadValue},
		{"id,start,end,demand\n0,0,1,eight\n", ErrBadValue},
		{"#g,abc\n", ErrBadValue},
		{"id,start,end\n0,5,1\n", ErrBadInterval},
		{"id,start,end\n0,NaN,1\n", ErrBadInterval},
		{"id,start,end\n0,0,NaN\n", ErrBadInterval},
		{"id,start,end\n0,nan,nan\n", ErrBadInterval},
		{"id,start,end\n0,-Inf,1\n", ErrBadInterval},
		{"id,start,end\n0,0,+Inf\n", ErrBadInterval},
	}
	for _, c := range cases {
		_, err := ReadInstanceCSV(strings.NewReader(c.src), 2)
		if err == nil {
			t.Errorf("accepted bad CSV %q", c.src)
			continue
		}
		if !errors.Is(err, c.want) {
			t.Errorf("ReadInstanceCSV(%q) = %v, want errors.Is(%v)", c.src, err, c.want)
		}
	}
}

// TestCSVFloatFormattingLossless pins the 'g'/-1 float encoding: endpoints
// that need all 53 bits of the mantissa survive a write/read round trip
// bit for bit.
func TestCSVFloatFormattingLossless(t *testing.T) {
	vals := []float64{0, 0.1, 1.0 / 3, math.Pi, 1e-308, 12345678.000000012, math.Nextafter(2, 3)}
	in := &Instance{Name: "fmt", G: 2}
	for i, v := range vals {
		in.Jobs = append(in.Jobs, Job{ID: i, Iv: interval.New(v, v+1.0/7), Demand: 1})
	}
	var buf bytes.Buffer
	if err := WriteInstanceCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	rt, err := ReadInstanceCSV(&buf, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range in.Jobs {
		if rt.Jobs[i].Iv != in.Jobs[i].Iv {
			t.Errorf("job %d: %v != %v after round trip", i, rt.Jobs[i].Iv, in.Jobs[i].Iv)
		}
	}
}
