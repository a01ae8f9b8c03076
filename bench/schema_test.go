package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []MetricDef `json:"per_layer"`
}

// BENCHMARK.json must describe exactly what the code runs and reports, and
// stay inside the limits of its format.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(raw))
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads, code has %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, code has %+v", i, w, Workloads[i])
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m MetricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %+v: bad or repeated name or unit", m)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	if len(f.EndToEnd) != len(EndToEnd) || len(f.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics, code has %d", len(f.EndToEnd), len(EndToEnd))
	}
	largest := 0.0
	for i, m := range f.EndToEnd {
		d := MetricDef{m.Name, m.Unit, m.Better}
		check(d)
		if d != EndToEnd[i] {
			t.Errorf("end-to-end %d: %+v, code has %+v", i, d, EndToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		largest = max(largest, m.Bound)
	}
	if f.EndToEnd[0].Name != "setup_s" || f.EndToEnd[0].Bound != largest {
		t.Errorf("setup_s must come first with the largest bound: %+v", f.EndToEnd[0])
	}
	if len(f.PerLayer) != len(PerLayer) || len(f.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics, code has %d", len(f.PerLayer), len(PerLayer))
	}
	for i, m := range f.PerLayer {
		check(m)
		if m != PerLayer[i] {
			t.Errorf("per-layer %d: %+v, code has %+v", i, m, PerLayer[i])
		}
	}
}
