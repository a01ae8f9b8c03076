// Traces example: pull the diurnal (day/night) cloud trace from the
// scenario registry, replay it offline and online through the scenario
// driver — which cross-checks every schedule against the discrete-event
// simulator before reporting — render the Gantt chart and depth profile,
// and export the workload as CSV for external tools.
//
//	go run ./examples/traces
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"busytime/internal/core"
	"busytime/internal/scenario"
	"busytime/internal/viz"
)

func main() {
	sc, ok := scenario.Lookup("diurnal")
	if !ok {
		log.Fatal("diurnal scenario not registered")
	}
	params := scenario.Params{Seed: 2026, N: 150, G: 4, Horizon: 48, MeanLen: 2.5}

	// The driver replays the same trace twice: a clairvoyant offline solve
	// through the portfolio, and an online session that must place each VM
	// the moment it arrives, with 10% cancelled before completion.
	rep, err := scenario.Run(context.Background(), scenario.Config{
		Algorithm:   "portfolio",
		Policy:      "firstfit",
		ReleaseFrac: 0.1,
	}, sc, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload %s: %d jobs over %v hours\n", rep.Scenario, rep.Jobs, params.Horizon)
	fmt.Printf("offline (%s): %.1f machine-hours on %d machines, ratio %.3f vs LB %.1f\n",
		rep.Offline.Algorithm, rep.Offline.Cost, rep.Offline.Machines,
		rep.Offline.Ratio, rep.Offline.LowerBound)
	fmt.Printf("online (%s) : %.1f machine-hours, live competitive ratio %.3f, %d early releases\n\n",
		rep.Online.Policy, rep.Online.Stats.Cost, rep.Online.Stats.Ratio, rep.Online.Released)

	// Regenerate the identical instance (same params, any worker count) for
	// the visual side: the scenario contract is bit-reproducibility.
	in, err := sc.Instance(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lower bound: %.1f machine-hours\n\n", core.BestBound(in))
	fmt.Print(viz.DepthProfile(in, 96))
	fmt.Println()

	// Export the workload for spreadsheets or other tools; the same file
	// replays through `busysched replay -trace <path>`.
	path := filepath.Join(os.TempDir(), "diurnal.csv")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := core.WriteInstanceCSV(f, in); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload exported to %s\n", path)
}
