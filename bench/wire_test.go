package bench

import (
	"strings"
	"testing"
)

// Replaying the arrival stream to tenant keys that have already seen it is
// the trap a load generator falls into when it reuses keys against a
// long-lived daemon: every frame comes back rejected as invalid (its start
// precedes the session's clock), and a generator that only counts
// placements reports a tiny rate and exits 0. The wire workload opens fresh
// keys for every phase; reused keys must surface as failed operations and
// an error, never as a slow success.
func TestWireReusedTenantKeysFail(t *testing.T) {
	r := newRunner(Config{Seed: 1, Short: true})
	rig, _, err := newWireRig(r, -1)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(rig.srv)

	for range 2 { // fresh keys each phase: clean
		if _, err := rig.pipeline(0, 3, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.failed != 0 {
		t.Fatalf("%d failures with fresh keys", r.failed)
	}

	if _, err := rig.pipelineAs("reused", 0, 3, nil); err != nil {
		t.Fatal(err)
	}
	// Two runs replay arrivals that all start before the sessions' clock.
	ph, err := rig.pipelineAs("reused", 0, 2, nil)
	frames := wireConns * wireTenants * 2 * wireRun
	if r.failed != frames {
		t.Fatalf("%d of the replayed phase's %d frames counted as failed", r.failed, frames)
	}
	if err == nil || !strings.Contains(err.Error(), "client saw 0 placements") {
		t.Fatalf("replayed phase: %+v, error %v", ph, err)
	}
	if got := rig.srv.StatsSnapshot().Rejected.Invalid; got != uint64(frames) {
		t.Fatalf("server rejected %d frames as invalid, want %d", got, frames)
	}
}
