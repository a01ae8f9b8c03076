package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestE2EBusysched builds the real busysched binary once and runs every
// command `busysched help` lists on a small seeded input. It checks the exit
// code convention (0 success, 1 command error, 2 missing or unknown
// command), that every JSON output parses, and that SIGINT cancels a long
// run cooperatively.
func TestE2EBusysched(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs the real binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "busysched")
	if out, err := exec.Command("go", "build", "-o", bin, "busytime/cmd/busysched").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	inst := filepath.Join(dir, "inst.json")
	sched := filepath.Join(dir, "sched.json")
	rows := []struct {
		args []string
		code int
		want string // substring of stdout or stderr
		json string // file that must hold a JSON document, "-" for stdout
	}{
		{[]string{"generate", "-kind", "general", "-n", "40", "-g", "3", "-seed", "7", "-out", inst}, 0, "", inst},
		{[]string{"generate", "-kind", "clique", "-n", "20", "-seed", "3"}, 0, `"jobs"`, "-"},
		{[]string{"generate", "-no-such-flag"}, 1, "flag provided but not defined", ""},
		{[]string{"solve", "-algo", "firstfit", "-in", inst, "-replay", "-out", sched}, 0, "replay   : ok", sched},
		{[]string{"solve", "-algo", "nope", "-in", inst}, 1, "unknown algorithm", ""},
		{[]string{"eval", "-in", inst}, 0, "cost/LB", ""},
		{[]string{"bounds", "-in", inst}, 0, "fractional", ""},
		{[]string{"show", "-in", inst, "-width", "60"}, 0, "depth profile", ""},
		{[]string{"show", "-in", inst, "-width", "0"}, 1, "-width 0", ""},
		{[]string{"simulate", "-in", inst}, 0, "violations 0", ""},
		{[]string{"convert", "-in", inst, "-out", filepath.Join(dir, "inst.csv")}, 0, "", ""},
		{[]string{"batch", "-algo", "bestfit", "-kind", "burst", "-count", "3", "-n", "300", "-format", "json", "-verify"}, 0, `"machines"`, "-"},
		{[]string{"batch", "-kind", "general", "-count", "-1"}, 1, "-count -1", ""},
		{[]string{"online", "-n", "3000", "-live", "50", "-seed", "5", "-json"}, 0, `"placed"`, "-"},
		{[]string{"replay", "-scenario", "poisson", "-n", "300", "-json"}, 0, `"scenario"`, "-"},
		{[]string{"replay", "-scenario", "nope"}, 1, "unknown scenario", ""},
		{[]string{"experiments", "-trials", "2", "-large", "100", "-only", "E2,E9"}, 0, "E9 — ", ""},
		{[]string{"experiments", "-only", "E99"}, 1, "-only E99: not one of", ""},
		{[]string{"lightpath", "-nodes", "20", "-paths", "40", "-g", "4", "-seed", "7", "-breakdown"}, 0, "per-wavelength breakdown", ""},
		{[]string{"lightpath", "-ring", "-nodes", "12", "-paths", "30", "-g", "2"}, 0, "best observed cut", ""},
		{[]string{"lightpath", "-nodes", "1"}, 1, "optical: 1 nodes, want ≥ 2", ""},
		{[]string{"help"}, 0, "commands:", ""},
		{nil, 2, "usage: busysched", ""},
		{[]string{"frobnicate"}, 2, `unknown command "frobnicate"`, ""},
	}
	passed := map[string]bool{}
	for _, r := range rows {
		cmd := exec.Command(bin, r.args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil && cmd.ProcessState == nil {
			t.Fatalf("%v: %v", r.args, err)
		}
		code := cmd.ProcessState.ExitCode()
		if code != r.code || !strings.Contains(stdout.String()+stderr.String(), r.want) {
			t.Errorf("%v: exit %d, want %d with %q\nstdout: %s\nstderr: %s",
				r.args, code, r.code, r.want, stdout.String(), stderr.String())
			continue
		}
		if r.json != "" {
			doc := stdout.Bytes()
			if r.json != "-" {
				var err error
				if doc, err = os.ReadFile(r.json); err != nil {
					t.Fatal(err)
				}
			}
			if !json.Valid(doc) {
				t.Errorf("%v: output is not JSON:\n%s", r.args, doc)
			}
		}
		if code == 0 && len(r.args) > 0 {
			passed[r.args[0]] = true
		}
	}

	// Every command the usage text lists must have a passing row above.
	usage, _ := exec.Command(bin, "help").CombinedOutput()
	_, list, _ := strings.Cut(string(usage), "commands:\n")
	list, _, _ = strings.Cut(list, "\n\n")
	var listed []string
	for _, line := range strings.Split(list, "\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(line, "  "), " "); ok && !strings.HasPrefix(line, "   ") {
			listed = append(listed, name)
		}
	}
	if len(listed) < 10 {
		t.Fatalf("parsed only %v from the usage text:\n%s", listed, usage)
	}
	for _, name := range listed {
		if !passed[name] {
			t.Errorf("busysched help lists %q, but no row ran it successfully", name)
		}
	}
	for name := range passed {
		if !slices.Contains(listed, name) && name != "help" {
			t.Errorf("row command %q is missing from the usage text", name)
		}
	}

	// SIGINT turns into a cancelled context: the command stops at its next
	// check and reports the cancellation as an ordinary command error.
	for _, args := range [][]string{
		{"batch", "-algo", "firstfit", "-kind", "general", "-n", "2000", "-count", "100000", "-workers", "2"},
		{"experiments"},
	} {
		cmd := exec.Command(bin, args...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		waitErr := make(chan error, 1)
		go func() { waitErr <- cmd.Wait() }()
		time.Sleep(500 * time.Millisecond)
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatalf("%v: SIGINT: %v (the run ended before the signal)", args, err)
		}
		select {
		case err := <-waitErr:
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatalf("%v: %v", args, err)
			}
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-waitErr
			t.Fatalf("%v: still running 5 s after SIGINT", args)
		}
		if code := cmd.ProcessState.ExitCode(); code != 1 || stderr.String() != "busysched: context canceled\n" {
			t.Errorf("%v: exit %d, stderr %q after SIGINT; want exit 1 with busysched: context canceled", args, code, stderr.String())
		}
	}
}
