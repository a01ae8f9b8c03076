package cli

import (
	"strings"
	"testing"
)

// TestExperimentsSelection checks -only runs the named experiments, case
// insensitively, once each and in paper order.
func TestExperimentsSelection(t *testing.T) {
	code, out, errOut := run("experiments", "-trials", "2", "-large", "100", "-only", "e9, E2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var ids []string
	for _, line := range strings.Split(out, "\n") {
		if id, _, ok := strings.Cut(line, " — "); ok && !strings.Contains(id, " ") {
			ids = append(ids, id)
		}
	}
	if got := strings.Join(ids, ","); got != "E2,E2,E9,E9" {
		t.Fatalf("experiment headers %s, want E2 then E9 (title and table each):\n%s", got, out)
	}
}

// TestLightpathReports pins the §4 reports: the path reduction's totals and
// the ring's cut comparison, at the values recorded for these seeds.
func TestLightpathReports(t *testing.T) {
	for _, c := range []struct {
		args []string
		want []string
	}{
		{[]string{"lightpath", "-nodes", "5", "-paths", "3", "-g", "2"},
			[]string{"network: 5 nodes, 3 lightpaths, grooming g=2", "reduction: 3 jobs, fractional LB 4.00", "coloring comparison"}},
		{[]string{"lightpath", "-nodes", "20", "-paths", "40", "-g", "4", "-seed", "7", "-breakdown"},
			[]string{"reduction: 40 jobs, fractional LB 88.00", "per-wavelength breakdown (best coloring)"}},
		{[]string{"lightpath", "-ring"},
			[]string{"ring network: 40 nodes, 120 arcs, grooming g=4", "least-loaded cut edge: 21", "best observed cut: 0 (285 regenerators)"}},
	} {
		code, out, errOut := run(c.args...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", c.args, code, errOut)
		}
		for _, want := range c.want {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output missing %q:\n%s", c.args, want, out)
			}
		}
	}
}
