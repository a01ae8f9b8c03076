package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"busytime/internal/xrand"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	for _, x := range []float64{1, 2, 3, 4, 5} {
		s.Add(x)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v, want 3", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("min/max = %v/%v", s.Min(), s.Max())
	}
	if math.Abs(s.Var()-2.5) > 1e-12 {
		t.Errorf("Var = %v, want 2.5", s.Var())
	}
	if math.Abs(s.Stddev()-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("Stddev = %v", s.Stddev())
	}
	if s.CI95() <= 0 {
		t.Error("CI95 should be positive")
	}
	if !strings.Contains(s.String(), "n=5") {
		t.Errorf("String = %q", s.String())
	}
}

func TestSampleEmptyAndSingle(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Var() != 0 || s.CI95() != 0 {
		t.Error("empty sample nonzero stats")
	}
	s.Add(7)
	if s.Mean() != 7 || s.Min() != 7 || s.Max() != 7 || s.Var() != 0 {
		t.Error("single observation stats wrong")
	}
}

func TestQuickWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, nn uint8) bool {
		r := xrand.New(seed)
		n := int(nn%30) + 2
		var s Sample
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
			s.Add(xs[i])
		}
		var sum float64
		for _, x := range xs {
			sum += x
		}
		mean := sum / float64(n)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(s.Mean()-mean) < 1e-9 && math.Abs(s.Var()-naiveVar) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1: demo", "g", "ratio", "note")
	tb.AddRow(2, 1.2345, "ok")
	tb.AddRow(16, 3.0, "long value here")
	out := tb.String()
	if !strings.Contains(out, "T1: demo") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "1.234") {
		t.Errorf("float not formatted: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("got %d lines:\n%s", len(lines), out)
	}
	// All data lines equally padded (fixed width).
	if len(lines[1]) != len(lines[2]) || len(lines[2]) != len(lines[3]) {
		t.Errorf("ragged table:\n%s", out)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.AddRow("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Error("empty title produced leading newline")
	}
}
