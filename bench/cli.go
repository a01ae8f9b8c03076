package bench

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// Host is the fingerprint of the machine a run measured.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

// hostFingerprint describes this machine. The CPU model comes from
// /proc/cpuinfo where the kernel provides one.
func hostFingerprint() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        "unknown",
		Go:         runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPU = strings.TrimSpace(v)
			break
		}
	}
	return h
}

// report is the document -json writes.
type report struct {
	Host      Host             `json:"host"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Short     bool             `json:"short"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string   `json:"name"`
	Why       string   `json:"why"`
	Correct   bool     `json:"correct"`
	Error     string   `json:"error,omitempty"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []Metric `json:"metrics"`
}

// summary is the one-line JSON result the run prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Main runs the benchmark with command-line args, printing one line per
// metric, "workload metric value unit n=samples", and last a one-line JSON
// summary. It returns the process exit code: 0 when every output check
// passed, 1 when one failed, 2 for bad usage.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchledger", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		cfg   Config
		names []string
	)
	for _, w := range Workloads {
		names = append(names, w.Name)
	}
	workload := fs.String("workload", "", "run only this workload: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 15, "measuring time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 for the traced run, which reports per-layer metrics")
	fs.BoolVar(&cfg.Short, "short", false, "tiny inputs")
	jsonOut := fs.String("json", "", "write the full report to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the recorded spans to this file as JSON lines")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || cfg.Seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchledger: want -seconds > 0, -trace 0 or 1, and no arguments")
		return 2
	}
	cfg.Trace = *trace == 1
	run := Workloads
	if *workload != "" {
		w, ok := Lookup(*workload)
		if !ok {
			fmt.Fprintf(stderr, "benchledger: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
			return 2
		}
		run = []Workload{w}
	}

	host := hostFingerprint()
	fmt.Fprintf(stdout, "# host nproc=%d gomaxprocs=%d go=%s %s/%s cpu=%q\n",
		host.NumCPU, host.GOMAXPROCS, host.Go, host.OS, host.Arch, host.CPU)
	doc := report{Host: host, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace, Short: cfg.Short}
	sum := summary{Correct: true, Metrics: make(map[string]summaryItem)}
	var spans []Span
	for _, w := range run {
		res, err := Run(cfg, w)
		wr := workloadReport{Name: w.Name, Why: w.Why, Correct: err == nil,
			Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
		sum.Attempted += res.Attempted
		sum.Failed += res.Failed
		if err != nil {
			fmt.Fprintf(stderr, "benchledger: %v\n", err)
			wr.Error = err.Error()
			sum.Correct = false
		}
		for _, m := range res.Metrics {
			fmt.Fprintf(stdout, "%s %s %v %s n=%d\n", w.Name, m.Name, m.Value, m.Unit, m.N)
			key := m.Name
			if len(run) > 1 {
				key = w.Name + "." + m.Name
			}
			sum.Metrics[key] = summaryItem{m.Value, m.Unit}
		}
		doc.Workloads = append(doc.Workloads, wr)
		spans = append(spans, res.Spans...)
	}
	if err := writeOutputs(doc, spans, *jsonOut, *spansOut); err != nil {
		fmt.Fprintf(stderr, "benchledger: %v\n", err)
		sum.Correct = false
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintf(stderr, "benchledger: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !sum.Correct {
		return 1
	}
	return 0
}

// writeOutputs writes the report and the spans to the files named, if any.
func writeOutputs(doc report, spans []Span, jsonOut, spansOut string) error {
	var errs []error
	if jsonOut != "" {
		errs = append(errs, writeFile(jsonOut, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}))
	}
	if spansOut != "" {
		errs = append(errs, writeFile(spansOut, func(w io.Writer) error { return WriteSpans(w, spans) }))
	}
	return errors.Join(errs...)
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
