package core

import (
	"bytes"
	"strings"
	"testing"

	"busytime/internal/interval"
	"busytime/internal/xrand"
)

// FuzzReadInstance checks the JSON decoder never panics and that accepted
// instances are valid and round-trip losslessly.
func FuzzReadInstance(f *testing.F) {
	f.Add(`{"g":2,"jobs":[{"id":0,"start":0,"end":1}]}`)
	f.Add(`{"g":1,"jobs":[]}`)
	f.Add(`{"name":"x","g":3,"jobs":[{"id":5,"start":1.5,"end":2.25,"demand":2}]}`)
	f.Add(`{}`)
	f.Add(`not json`)
	f.Add(`{"g":2,"jobs":[{"id":0,"start":9,"end":1}]}`)
	f.Fuzz(func(t *testing.T, src string) {
		in, err := ReadInstance(strings.NewReader(src))
		if err != nil {
			return
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted instance fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteInstance(&buf, in); err != nil {
			t.Fatalf("WriteInstance: %v", err)
		}
		rt, err := ReadInstance(&buf)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if rt.N() != in.N() || rt.G != in.G || rt.Name != in.Name {
			t.Fatal("round trip changed instance shape")
		}
		for i := range in.Jobs {
			if rt.Jobs[i] != in.Jobs[i] {
				t.Fatalf("job %d changed in round trip", i)
			}
		}
	})
}

// FuzzReadCSV checks that arbitrary input never panics the parser and that
// everything it accepts survives a write/read round trip. The seeds include
// the data-error shapes the typed-error split guards: NaN and infinite
// endpoints (which parse as floats but must be rejected, not passed to
// interval.New), reversed intervals, and malformed numbers.
func FuzzReadCSV(f *testing.F) {
	f.Add("#g,2\nid,start,end,demand\n0,0,1,1\n")
	f.Add("id,start,end\n0,0,1\n1,0.5,2.25\n")
	f.Add("")
	f.Add("#g,0\n")
	f.Add("id,start,end\n0,5,1\n")
	f.Add("garbage,,,,\n")
	f.Add("id,start,end\n0,NaN,1\n")
	f.Add("id,start,end\n0,0,NaN\n")
	f.Add("id,start,end\n0,-Inf,+Inf\n")
	f.Add("id,start,end\n0,1e309,2e309\n")
	f.Add("id,start,end,demand\n0,0,1,\n")
	f.Add("#g,2\n#g,3\nid,start,end\n0,0,1\n")
	f.Fuzz(func(t *testing.T, src string) {
		in, err := ReadInstanceCSV(strings.NewReader(src), 2)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("accepted instance fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteInstanceCSV(&buf, in); err != nil {
			t.Fatalf("WriteInstanceCSV on accepted instance: %v", err)
		}
		rt, err := ReadInstanceCSV(&buf, in.G)
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if rt.N() != in.N() || rt.G != in.G {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d", rt.N(), rt.G, in.N(), in.G)
		}
	})
}

// FuzzCSVRoundTrip drives the write side: pseudo-random instances — full
// float64 endpoints, mixed demands, sparse demand columns — must round-trip
// through WriteInstanceCSV/ReadInstanceCSV with every job bit-identical: g lossless, float
// formatting exact ('g', -1 shortest round-trip), missing demand defaulting
// to 1 on both sides.
func FuzzCSVRoundTrip(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3))
	f.Add(int64(42), uint8(1), uint8(1))
	f.Add(int64(-7), uint8(50), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nJobs, g uint8) {
		if g == 0 {
			g = 1
		}
		r := xrand.New(seed)
		in := &Instance{Name: "fuzz", G: int(g)}
		for i := 0; i < int(nJobs); i++ {
			// Endpoints exercise the formatter: mix tiny, fractional and
			// large magnitudes, all finite by construction.
			s := (r.Float64() - 0.5) * 1e9 * r.Float64() * r.Float64()
			l := r.ExpFloat64() * 100
			d := 1 + r.Intn(int(g))
			in.Jobs = append(in.Jobs, Job{ID: i, Iv: interval.New(s, s+l), Demand: d})
		}
		var buf bytes.Buffer
		if err := WriteInstanceCSV(&buf, in); err != nil {
			t.Fatalf("WriteInstanceCSV: %v", err)
		}
		rt, err := ReadInstanceCSV(&buf, 99)
		if err != nil {
			t.Fatalf("ReadInstanceCSV rejected own output: %v", err)
		}
		if rt.G != in.G {
			t.Fatalf("g not lossless: %d vs %d", rt.G, in.G)
		}
		if rt.N() != in.N() {
			t.Fatalf("job count changed: %d vs %d", rt.N(), in.N())
		}
		for i := range in.Jobs {
			if rt.Jobs[i] != in.Jobs[i] {
				t.Fatalf("job %d changed: %+v vs %+v", i, rt.Jobs[i], in.Jobs[i])
			}
		}
	})
}
