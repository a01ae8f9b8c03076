package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// runMain runs the command line and decodes its last line.
func runMain(t *testing.T, args ...string) (summary, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := Main(args, &out, &errOut)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("%v: last line %q: %v", args, lines[len(lines)-1], err)
	}
	if code != 0 || !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
		t.Fatalf("%v: exit %d, summary %+v\n%s%s", args, code, sum, out.String(), errOut.String())
	}
	return sum, out.String()
}

// Every workload runs at the short sizes, untraced and traced, passes its
// output checks and reports exactly the metrics its kind of run defines,
// each with its unit, one "workload metric value unit n=samples" line apiece.
func TestWorkloadsShort(t *testing.T) {
	for _, w := range Workloads {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w.Name, trace), func(t *testing.T) {
				sum, out := runMain(t, "--workload", w.Name, "--seed", "3", "--seconds", "0.05",
					"--trace", fmt.Sprint(trace), "--short")
				defs := EndToEnd
				if trace == 1 {
					defs = PerLayer
				}
				if len(sum.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(sum.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := sum.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: %+v, want unit %s", d.Name, m, d.Unit)
					}
					if trace == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
					if !strings.Contains(out, fmt.Sprintf("%s %s ", w.Name, d.Name)) {
						t.Errorf("no line for %s", d.Name)
					}
				}
			})
		}
	}
}

// Equal seeds give equal inputs, so the deterministic metrics repeat.
func TestSeedDeterminesCostRatio(t *testing.T) {
	ratio := func(seed string) float64 {
		sum, _ := runMain(t, "--workload", "online-stream", "--seed", seed, "--seconds", "0.02", "--short")
		return sum.Metrics["cost_ratio"].Value
	}
	a, b, c := ratio("5"), ratio("5"), ratio("6")
	if a != b {
		t.Fatalf("seed 5 gave cost ratios %v and %v", a, b)
	}
	if a == c {
		t.Fatalf("seeds 5 and 6 gave the same cost ratio %v", a)
	}
}

func TestMainRejectsBadUsage(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--trace", "2"},
		{"--seconds", "0"},
		{"extra"},
	} {
		var out, errOut bytes.Buffer
		if code := Main(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
