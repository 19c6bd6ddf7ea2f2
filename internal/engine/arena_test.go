package engine

import (
	"context"
	"encoding/json"
	"testing"

	"ealb/internal/workload"
)

// TestArenaReuseIsInvisible: running the same cluster job repeatedly
// through a one-worker pool forces every job after the first onto a
// rebuilt arena cluster, and each result — including the full interval
// stream — must be byte-identical to a fresh direct run.
func TestArenaReuseIsInvisible(t *testing.T) {
	direct, err := RunCluster(context.Background(), 80, workload.LowLoad(), 5, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}

	p := NewPool(1)
	// A differently-shaped cell first, so the reference cells' arena
	// cluster is a rebuild from foreign state, not a fresh build.
	sweepRuns(t, p, SweepSpec{Scenario: Scenario{Size: 120, Band: "high", Seed: SeedOf(9), Intervals: 6}})
	runs := sweepRuns(t, p, SweepSpec{Scenario: Scenario{Size: 80, Band: "low", Intervals: 12}, Seeds: []uint64{5, 5}})
	for i, run := range runs {
		got, err := json.Marshal(run)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("arena-reused cell %d diverged from direct RunCluster", i)
		}
	}

	if got := p.Stats().IntervalsSimulated; got != 6+12+12 {
		t.Errorf("IntervalsSimulated = %d, want 30", got)
	}
}
