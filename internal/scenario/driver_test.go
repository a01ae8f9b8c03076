package scenario

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"busytime/internal/server"
)

// TestRunOfflineOnline drives the default two-mode replay of the diurnal
// scenario end to end: both reports present, cross-checks asserted, bounds
// sane, latency histograms populated.
func TestRunOfflineOnline(t *testing.T) {
	sc, _ := Lookup("diurnal")
	rep, err := Run(context.Background(), Config{
		Repeat:      3,
		ReleaseFrac: 0.15,
	}, sc, Params{Seed: 2, N: 600})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Offline == nil || rep.Online == nil || rep.Wire != nil {
		t.Fatalf("mode mix wrong: offline=%v online=%v wire=%v",
			rep.Offline != nil, rep.Online != nil, rep.Wire != nil)
	}
	off := rep.Offline
	if !off.CrossChecked || off.Cost < off.LowerBound || off.Ratio < 1 {
		t.Fatalf("offline report inconsistent: %+v", off)
	}
	if off.Latency.Count != 3 {
		t.Fatalf("solve latency count %d, want 3", off.Latency.Count)
	}
	on := rep.Online
	if !on.CrossChecked || on.Stats.Placed != uint64(rep.Jobs) {
		t.Fatalf("online report inconsistent: %+v", on)
	}
	if on.Released == 0 {
		t.Fatal("ReleaseFrac=0.15 released nothing")
	}
	if on.Stats.Ratio < 1 {
		t.Fatalf("online competitive ratio %v < 1", on.Stats.Ratio)
	}
	if on.Latency.Count != uint64(rep.Jobs) {
		t.Fatalf("place latency count %d, want %d", on.Latency.Count, rep.Jobs)
	}
	// No comparison of online vs offline cost here: the early-release mix
	// clips online intervals, so the online stream is a strictly smaller
	// workload than the offline instance.
}

// TestRunLightpathExact pins the §4.2 correspondence through the driver: the
// lightpath scenario's Check must find regenerators == busy time exactly and
// surface the coloring metrics.
func TestRunLightpathExact(t *testing.T) {
	sc, _ := Lookup("lightpath")
	rep, err := Run(context.Background(), Config{Modes: ModeOffline}, sc, Params{Seed: 3, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	m := metricMap(rep.Metrics)
	if _, ok := m["wavelengths"]; !ok {
		t.Fatalf("no wavelengths metric in %v", rep.Metrics)
	}
	if m["regenerators"] != rep.Offline.Cost {
		t.Fatalf("regenerators %v != busy time %v", m["regenerators"], rep.Offline.Cost)
	}
}

// TestRunRingBrackets checks the ring scenario reports both sides of the
// bracket: the cover relaxation the solver schedules and the exact native
// construction, with cover machines never above native wavelengths.
func TestRunRingBrackets(t *testing.T) {
	sc, _ := Lookup("ring")
	rep, err := Run(context.Background(), Config{Modes: ModeOffline}, sc, Params{Seed: 4, N: 200})
	if err != nil {
		t.Fatal(err)
	}
	m := metricMap(rep.Metrics)
	for _, k := range []string{"cover_machines", "cover_busy", "native_wavelengths", "native_regenerators"} {
		if _, ok := m[k]; !ok {
			t.Fatalf("metric %q missing from %v", k, rep.Metrics)
		}
	}
	if m["cover_machines"] == 0 || m["native_wavelengths"] == 0 {
		t.Fatalf("degenerate ring metrics: %v", rep.Metrics)
	}
}

// TestOnlineSessionMatchesRow pins the online mode's arrival order: fed in
// the instance's start order, the firstfit session bills exactly what the
// registry's online-firstfit row computes on the same instance, bit for bit.
func TestOnlineSessionMatchesRow(t *testing.T) {
	for _, name := range []string{"lightpath", "ring"} {
		sc, _ := Lookup(name)
		rep, err := Run(context.Background(), Config{
			Modes:     ModeOffline | ModeOnline,
			Algorithm: "online-firstfit",
			Policy:    "firstfit",
		}, sc, Params{Seed: 1, N: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Online.Stats.Cost != rep.Offline.Cost {
			t.Errorf("%s: session cost %v != online-firstfit row cost %v",
				name, rep.Online.Stats.Cost, rep.Offline.Cost)
		}
	}
}

func metricMap(ms []Metric) map[string]float64 {
	out := map[string]float64{}
	for _, m := range ms {
		out[m.Name] = m.Value
	}
	return out
}

// TestRunWire replays a scenario against an in-process busyschedd over the
// real framed data plane and checks the client-side counts agree with the
// server's own per-tenant stats echoed back over the stats frame.
func TestRunWire(t *testing.T) {
	srv, err := server.New(server.Config{DataAddr: "127.0.0.1:0", G: 4, Policy: "firstfit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	sc, _ := Lookup("poisson")
	rep, err := Run(context.Background(), Config{
		Modes: ModeWire,
		Addr:  srv.DataAddr().String(),
	}, sc, Params{Seed: 5, N: 500, G: 4})
	if err != nil {
		t.Fatal(err)
	}
	w := rep.Wire
	if w == nil {
		t.Fatal("no wire report")
	}
	if w.Placed != rep.Jobs || w.Rejected != 0 {
		t.Fatalf("placed %d rejected %d, want %d/0", w.Placed, w.Rejected, rep.Jobs)
	}
	if w.Stats.Placed != uint64(rep.Jobs) {
		t.Fatalf("server counted %d placements, client %d", w.Stats.Placed, w.Placed)
	}
	if w.Stats.Cost <= 0 || w.Stats.Ratio < 1 {
		t.Fatalf("server stats implausible: %+v", w.Stats)
	}
	if w.Latency.Count == 0 {
		t.Fatal("no batch latency observations")
	}
}

// TestRunWireAgreesWithLocalOnline is the three-way differential: the same
// stream through the in-process session and over the wire must land on the
// same machines — the daemon is a transport in front of the same pool — so
// costs agree exactly.
func TestRunWireAgreesWithLocalOnline(t *testing.T) {
	srv, err := server.New(server.Config{DataAddr: "127.0.0.1:0", G: 3, Policy: "bestfit"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(context.Background())

	sc, _ := Lookup("burst")
	rep, err := Run(context.Background(), Config{
		Modes:  ModeOnline | ModeWire,
		Policy: "bestfit",
		Addr:   srv.DataAddr().String(),
	}, sc, Params{Seed: 6, N: 400, G: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Online.Stats.Cost != rep.Wire.Stats.Cost {
		t.Fatalf("local session cost %v != server cost %v",
			rep.Online.Stats.Cost, rep.Wire.Stats.Cost)
	}
	if rep.Online.Stats.Machines != rep.Wire.Stats.Machines {
		t.Fatalf("local machines %d != server machines %d",
			rep.Online.Stats.Machines, rep.Wire.Stats.Machines)
	}
}

// TestWriteReportsCSV smoke-tests the flat export.
func TestWriteReportsCSV(t *testing.T) {
	sc, _ := Lookup("clustered")
	rep, err := Run(context.Background(), Config{}, sc, Params{Seed: 7, N: 120})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReportsCSV(&buf, []*Report{rep}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("CSV has %d lines, want header+1", len(lines))
	}
	if !strings.HasPrefix(lines[1], "clustered,7,") {
		t.Fatalf("row %q", lines[1])
	}
}
