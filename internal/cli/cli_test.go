package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"busytime"
	"busytime/internal/core"
	"busytime/internal/scenario"
)

// run invokes the CLI and returns (exit code, stdout, stderr).
func run(args ...string) (int, string, string) {
	var out, errb bytes.Buffer
	code := RunContext(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoArgsShowsUsage(t *testing.T) {
	code, _, errOut := run()
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errOut, "usage: busysched") {
		t.Errorf("usage missing: %q", errOut)
	}
	if !strings.Contains(errOut, "firstfit") {
		t.Error("usage should list registered algorithms")
	}
}

func TestUnknownCommand(t *testing.T) {
	code, _, errOut := run("frobnicate")
	if code != 2 || !strings.Contains(errOut, "unknown command") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestHelp(t *testing.T) {
	code, _, errOut := run("help")
	if code != 0 || !strings.Contains(errOut, "commands:") {
		t.Errorf("help: code=%d err=%q", code, errOut)
	}
	// A command's -h prints its flags and is not an error.
	for _, cmd := range []string{"generate", "batch", "experiments", "lightpath"} {
		code, _, errOut := run(cmd, "-h")
		if code != 0 || !strings.Contains(errOut, "Usage of "+cmd) || strings.Contains(errOut, "busysched:") {
			t.Errorf("%s -h: code=%d err=%q", cmd, code, errOut)
		}
	}
}

func TestGenerateToStdout(t *testing.T) {
	code, out, errOut := run("generate", "-kind", "general", "-n", "5", "-g", "2", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, `"jobs"`) {
		t.Errorf("no JSON instance on stdout: %q", out)
	}
}

func TestGenerateBadKind(t *testing.T) {
	code, _, errOut := run("generate", "-kind", "nonsense")
	if code != 1 || !strings.Contains(errOut, "unknown kind") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

// TestGenerateMatchesRegistry checks generate resolves every name through
// the scenario registry: its JSON decodes to exactly the instance Lookup
// builds from the same params, and unset flags take the family defaults.
func TestGenerateMatchesRegistry(t *testing.T) {
	for _, name := range scenario.Names() {
		code, out, errOut := run("generate", "-kind", name, "-seed", "3", "-n", "200")
		if code != 0 {
			t.Fatalf("generate %s: exit %d: %s", name, code, errOut)
		}
		got, err := core.ReadInstance(strings.NewReader(out))
		if err != nil {
			t.Fatalf("generate %s: %v", name, err)
		}
		sc, _ := scenario.Lookup(name)
		want, err := sc.Instance(scenario.Params{Seed: 3, N: 200})
		if err != nil {
			t.Fatal(err)
		}
		if got.Name != want.Name || got.G != want.G || got.N() != want.N() {
			t.Fatalf("%s: got %s g=%d n=%d, want %s g=%d n=%d",
				name, got.Name, got.G, got.N(), want.Name, want.G, want.N())
		}
		for i := range want.Jobs {
			if got.Jobs[i] != want.Jobs[i] {
				t.Fatalf("%s: job %d: %+v, want %+v", name, i, got.Jobs[i], want.Jobs[i])
			}
		}
	}
}

// TestWorkloadFlagsRejectBadValues checks a negative or non-finite workload
// flag is an error (exit 1), never a panic, on every subcommand that
// generates a workload.
func TestWorkloadFlagsRejectBadValues(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"generate", "-kind", "general", "-n", "-5"}, "N = -5"},
		{[]string{"generate", "-kind", "poisson", "-horizon", "NaN"}, "Horizon = NaN"},
		{[]string{"generate", "-kind", "bounded", "-meanlen", "-Inf"}, "MeanLen = -Inf"},
		{[]string{"generate", "-kind", "waves", "-g", "-2"}, "G = -2"},
		{[]string{"batch", "-kind", "burst", "-n", "-5"}, "N = -5"},
		{[]string{"batch", "-kind", "diurnal", "-meanlen", "+Inf"}, "MeanLen = +Inf"},
		{[]string{"replay", "-scenario", "burst", "-n", "-5"}, "N = -5"},
		{[]string{"replay", "-scenario", "poisson", "-workers", "-1"}, "Workers = -1"},
	} {
		code, _, errOut := run(c.args...)
		if code != 1 || !strings.Contains(errOut, c.want) {
			t.Errorf("%v: code=%d err=%q, want exit 1 with %q", c.args, code, errOut, c.want)
		}
	}
}

// TestCommandsRejectBadFlags checks flag values a command cannot honour are
// an error (exit 1) naming the value, never a panic or a silently empty run.
func TestCommandsRejectBadFlags(t *testing.T) {
	path := writeInstance(t, "general", 10)
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"show", "-in", path, "-width", "0"}, "-width 0"},
		{[]string{"show", "-in", path, "-width", "-7"}, "-width -7"},
		{[]string{"batch", "-kind", "general", "-count", "-1"}, "-count -1"},
		{[]string{"lightpath", "-nodes", "1"}, "optical: 1 nodes, want ≥ 2"},
		{[]string{"lightpath", "-nodes", "0"}, "optical: 0 nodes, want ≥ 2"},
		{[]string{"lightpath", "-nodes", "-4"}, "optical: -4 nodes, want ≥ 2"},
		{[]string{"lightpath", "-g", "0"}, "optical: grooming factor 0, want ≥ 1"},
		{[]string{"lightpath", "-ring", "-nodes", "1"}, "optical: ring with 1 nodes, want ≥ 3"},
		{[]string{"lightpath", "-paths", "-5"}, "-paths -5"},
		{[]string{"experiments", "-only", "E99"}, "-only E99: not one of the selected experiments (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, A1, A3, A4, A5, A6)"},
		{[]string{"experiments", "-only", "e1,E99"}, "-only E99: not one"},
		{[]string{"experiments", "-ablations=false", "-only", "A1"}, "-only A1: not one of the selected experiments (E1, E2, E3, E4, E5, E6, E7, E8, E9, E10)"},
		{[]string{"experiments", "-trials", "-3"}, "-trials -3"},
		{[]string{"experiments", "-large", "-1"}, "-large -1"},
		{[]string{"solve", "-in", empty}, "read instance " + empty + ": EOF"},
		{[]string{"replay", "-scenario", "poisson", "-n", "100", "-seeds", "-3"}, "-seeds -3"},
		{[]string{"replay", "-scenario", "poisson", "-n", "100", "-repeat", "-2"}, "-repeat -2"},
	} {
		code, out, errOut := run(c.args...)
		if code != 1 || !strings.Contains(errOut, c.want) || out != "" {
			t.Errorf("%v: code=%d err=%q out=%q, want exit 1 with %q and no output", c.args, code, errOut, out, c.want)
		}
	}
}

func TestGenerateBadFlag(t *testing.T) {
	code, _, _ := run("generate", "-definitely-not-a-flag")
	if code != 1 {
		t.Errorf("bad flag exit = %d, want 1", code)
	}
}

// writeInstance generates an instance file in a temp dir and returns its path.
func writeInstance(t *testing.T, kind string, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "inst.json")
	code, _, errOut := run("generate", "-kind", kind, "-n", "10", "-g", "2", "-seed", "5", "-out", path)
	if code != 0 {
		t.Fatalf("generate: %s", errOut)
	}
	return path
}

func TestSolveAndReplay(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, out, errOut := run("solve", "-algo", "firstfit", "-in", path, "-replay")
	if code != 0 {
		t.Fatalf("solve: %s", errOut)
	}
	for _, want := range []string{"machines", "cost", "LB(frac)", "replay   : ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("solve output missing %q:\n%s", want, out)
		}
	}
}

func TestSolveSchedulOutFile(t *testing.T) {
	path := writeInstance(t, "general", 10)
	sched := filepath.Join(t.TempDir(), "sched.json")
	code, _, errOut := run("solve", "-algo", "firstfit", "-in", path, "-out", sched)
	if code != 0 {
		t.Fatalf("solve: %s", errOut)
	}
	data, err := os.ReadFile(sched)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"assignment"`) {
		t.Error("schedule file missing assignment")
	}
}

func TestSolveUnknownAlgo(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, _, errOut := run("solve", "-algo", "nope", "-in", path)
	if code != 1 || !strings.Contains(errOut, "unknown algorithm") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestSolveMissingInput(t *testing.T) {
	code, _, errOut := run("solve", "-algo", "firstfit")
	if code != 1 || !strings.Contains(errOut, "missing -in") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestEval(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, out, errOut := run("eval", "-in", path)
	if code != 0 {
		t.Fatalf("eval: %s", errOut)
	}
	for _, want := range []string{"firstfit", "nextfit", "cost/LB"} {
		if !strings.Contains(out, want) {
			t.Errorf("eval output missing %q", want)
		}
	}
}

func TestBounds(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, out, errOut := run("bounds", "-in", path)
	if code != 0 {
		t.Fatalf("bounds: %s", errOut)
	}
	for _, want := range []string{"span", "parallelism", "fractional", "components"} {
		if !strings.Contains(out, want) {
			t.Errorf("bounds output missing %q:\n%s", want, out)
		}
	}
}

func TestShow(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, out, errOut := run("show", "-in", path, "-width", "40")
	if code != 0 {
		t.Fatalf("show: %s", errOut)
	}
	if !strings.Contains(out, "depth profile") || !strings.Contains(out, "M0") {
		t.Errorf("show output incomplete:\n%s", out)
	}
}

func TestSimulate(t *testing.T) {
	path := writeInstance(t, "general", 10)
	code, out, errOut := run("simulate", "-in", path)
	if code != 0 {
		t.Fatalf("simulate: %s", errOut)
	}
	if !strings.Contains(out, "violations 0") {
		t.Errorf("simulate output:\n%s", out)
	}
}

func TestConvertRoundTrip(t *testing.T) {
	path := writeInstance(t, "general", 10)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "inst.csv")
	backPath := filepath.Join(dir, "back.json")
	if code, _, errOut := run("convert", "-in", path, "-out", csvPath); code != 0 {
		t.Fatalf("to csv: %s", errOut)
	}
	if code, _, errOut := run("convert", "-in", csvPath, "-out", backPath); code != 0 {
		t.Fatalf("to json: %s", errOut)
	}
	// CSV does not carry the instance name, so compare semantically.
	a := readInstanceFile(t, path)
	b := readInstanceFile(t, backPath)
	if a.G != b.G || a.N() != b.N() {
		t.Fatalf("round trip changed shape: g %d→%d, n %d→%d", a.G, b.G, a.N(), b.N())
	}
	for i := range a.Jobs {
		if a.Jobs[i] != b.Jobs[i] {
			t.Errorf("job %d changed: %+v → %+v", i, a.Jobs[i], b.Jobs[i])
		}
	}
}

func readInstanceFile(t *testing.T, path string) *core.Instance {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	in, err := core.ReadInstance(f)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestConvertMissingFlags(t *testing.T) {
	code, _, errOut := run("convert", "-in", "x.json")
	if code != 1 || !strings.Contains(errOut, "convert needs") {
		t.Errorf("code=%d err=%q", code, errOut)
	}
}

func TestGenerateAllKinds(t *testing.T) {
	for _, kind := range []string{"general", "proper", "clique", "bounded", "poisson", "diurnal"} {
		kind := kind
		t.Run(kind, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "inst.json")
			code, _, errOut := run("generate", "-kind", kind, "-n", "20", "-g", "3",
				"-seed", "7", "-horizon", "48", "-out", path)
			if code != 0 {
				t.Fatalf("generate %s: %s", kind, errOut)
			}
			if code, _, errOut := run("eval", "-in", path); code != 0 {
				t.Fatalf("eval %s: %s", kind, errOut)
			}
		})
	}
}

func TestOnlineStream(t *testing.T) {
	code, out, errOut := run("online", "-n", "5000", "-live", "100", "-g", "3",
		"-maxdemand", "2", "-release", "0.25", "-window", "128", "-seed", "11")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"placed    : 5000", "released", "compactions", "cost/LB"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestOnlineJSON(t *testing.T) {
	code, out, errOut := run("online", "-n", "5000", "-live", "100", "-g", "3",
		"-maxdemand", "2", "-release", "0.25", "-window", "128", "-seed", "11", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var st busytime.OnlineStats
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatalf("-json output is not an OnlineStats document: %v\n%s", err, out)
	}
	if st.Placed != 5000 || st.Cost <= 0 || st.Ratio < 1 {
		t.Fatalf("decoded stats: %+v", st)
	}
	// Same stream, same stats: the JSON document and the text report come
	// from one Stats() snapshot shape.
	code2, out2, _ := run("online", "-n", "5000", "-live", "100", "-g", "3",
		"-maxdemand", "2", "-release", "0.25", "-window", "128", "-seed", "11")
	if code2 != 0 || !strings.Contains(out2, fmt.Sprintf("placed    : %d", st.Placed)) {
		t.Fatalf("text/json divergence: %+v vs\n%s", st, out2)
	}
}

func TestOnlineBadFlags(t *testing.T) {
	if code, _, errOut := run("online", "-policy", "nonsense"); code != 1 ||
		!strings.Contains(errOut, "unknown online policy") {
		t.Errorf("bad policy: code=%d err=%q", code, errOut)
	}
	if code, _, errOut := run("online", "-release", "1.5"); code != 1 ||
		!strings.Contains(errOut, "out of [0, 1]") {
		t.Errorf("bad release fraction: code=%d err=%q", code, errOut)
	}
	for _, window := range []string{"-1", "1125899906842624"} {
		if code, _, errOut := run("online", "-window", window); code != 1 ||
			!strings.Contains(errOut, "WithWindow") {
			t.Errorf("-window %s: code=%d err=%q", window, code, errOut)
		}
	}
	for _, live := range []string{"0", "-3"} {
		if code, _, errOut := run("online", "-n", "100", "-live", live); code != 1 ||
			!strings.Contains(errOut, "-live") {
			t.Errorf("-live %s: code=%d err=%q", live, code, errOut)
		}
	}
	if code, _, errOut := run("online", "-n", "-1"); code != 1 ||
		!strings.Contains(errOut, "-n -1") {
		t.Errorf("negative stream length: code=%d err=%q", code, errOut)
	}
}

func TestReplayList(t *testing.T) {
	code, out, errOut := run("replay", "-list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, name := range []string{"diurnal", "poisson", "ring", "lightpath", "general", "proper", "clique", "bounded"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list missing %q:\n%s", name, out)
		}
	}
}

func TestReplayText(t *testing.T) {
	code, out, errOut := run("replay", "-scenario", "diurnal", "-n", "500",
		"-seed", "3", "-release", "0.1", "-repeat", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"scenario  : diurnal", "offline   :", "online    :", "[sim ok]", "ratio="} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestReplayJSON(t *testing.T) {
	code, out, errOut := run("replay", "-scenario", "diurnal", "-n", "400", "-json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	var rep struct {
		Scenario string `json:"scenario"`
		Jobs     int    `json:"jobs"`
		Offline  *struct {
			Cost         float64 `json:"cost"`
			Ratio        float64 `json:"ratio"`
			CrossChecked bool    `json:"cross_checked"`
		} `json:"offline"`
		Online *struct {
			Stats busytime.OnlineStats `json:"stats"`
		} `json:"online"`
	}
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output: %v\n%s", err, out)
	}
	if rep.Scenario != "diurnal" || rep.Jobs == 0 {
		t.Fatalf("decoded report: %+v", rep)
	}
	if rep.Offline == nil || !rep.Offline.CrossChecked || rep.Offline.Ratio < 1 {
		t.Fatalf("offline section: %+v", rep.Offline)
	}
	if rep.Online == nil || rep.Online.Stats.Ratio < 1 {
		t.Fatalf("online section: %+v", rep.Online)
	}
}

func TestReplaySeedSweepCSV(t *testing.T) {
	code, out, errOut := run("replay", "-scenario", "poisson", "-n", "300",
		"-seeds", "3", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header+3:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "scenario,seed,") {
		t.Errorf("header %q", lines[0])
	}
}

func TestReplayTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	if err := os.WriteFile(path, []byte("#g,2\nid,start,end,demand\n0,0,3,1\n1,1,4,1\n2,2,6,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := run("replay", "-trace", path, "-modes", "offline")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "jobs=3") || !strings.Contains(out, "[sim ok]") {
		t.Fatalf("trace replay report:\n%s", out)
	}
}

func TestReplayBadFlags(t *testing.T) {
	if code, _, errOut := run("replay", "-scenario", "nope"); code != 1 ||
		!strings.Contains(errOut, "unknown scenario") {
		t.Errorf("bad scenario: code=%d err=%q", code, errOut)
	}
	if code, _, errOut := run("replay", "-modes", "wire"); code != 1 ||
		!strings.Contains(errOut, "needs -addr") {
		t.Errorf("wire without addr: code=%d err=%q", code, errOut)
	}
	if code, _, errOut := run("replay", "-modes", "bogus"); code != 1 ||
		!strings.Contains(errOut, "unknown mode") {
		t.Errorf("bad modes: code=%d err=%q", code, errOut)
	}
}
