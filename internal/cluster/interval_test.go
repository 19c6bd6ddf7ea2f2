package cluster

import (
	"context"
	"testing"

	"ealb/internal/units"
	"ealb/internal/workload"
)

// TestRunIntervalsCountExact: RunIntervals(ctx, n) returns exactly n
// intervals and advances the clock by τ added n times, also for a τ whose
// running float sum overshoots n·τ (0.1 does).
func TestRunIntervalsCountExact(t *testing.T) {
	const n = 20
	for _, tau := range []units.Seconds{0.1, 13.7, 60} {
		cfg := DefaultConfig(50, workload.LowLoad(), 3)
		cfg.Tau = tau
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := c.RunIntervals(context.Background(), n)
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != n {
			t.Errorf("τ=%v: RunIntervals(%d) returned %d intervals", tau, n, len(stats))
		}
		var want units.Seconds
		for i := 0; i < n; i++ {
			want += tau
		}
		if c.Now() != want {
			t.Errorf("τ=%v: Now() = %v, want %v (τ summed %d times)", tau, float64(c.Now()), float64(want), n)
		}
	}
}

// wakeTable is (WakesCompleted, Wakes) after each of 40 single-interval
// RunIntervals calls on the drifting, churned cluster of
// TestWakeCompletionTable. Completions lag initiations by the C6 setup
// time (several intervals), and crashes mid-wake cancel completions, so
// the first column ends below the second.
var wakeTable = [40][2]int{
	{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0},
	{0, 1}, {0, 3}, {0, 11}, {0, 11}, {0, 11}, {1, 11}, {2, 11}, {7, 11},
	{7, 11}, {7, 11}, {7, 12}, {7, 12}, {7, 12}, {7, 12}, {7, 12}, {8, 12},
	{8, 12}, {8, 12}, {8, 12}, {8, 14}, {8, 14}, {8, 14}, {8, 14}, {8, 15},
	{10, 15}, {10, 15}, {10, 15}, {10, 15}, {11, 15}, {11, 15}, {11, 15}, {11, 15},
}

// TestWakeCompletionTable pins exactly when wake-ups complete: a wake
// completes before the first interval that starts at or after its ready
// time, and a crash mid-wake drops the completion.
func TestWakeCompletionTable(t *testing.T) {
	cfg := DefaultConfig(120, workload.LowLoad(), 11)
	cfg.Drift = 0.02
	cfg.MTBF = 1500
	cfg.MTTR = 600
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wakeTable {
		if _, err := c.RunIntervals(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		if got := [2]int{c.WakesCompleted(), c.Wakes()}; got != want {
			t.Errorf("after interval %d: (completed, wakes) = %v, want %v", i+1, got, want)
		}
	}
	inflight := 0
	for _, s := range c.Servers() {
		if !s.Sleeping() && s.CStateBusy(c.Now()) {
			inflight++
		}
	}
	if cancelled := c.Wakes() - c.WakesCompleted() - inflight; cancelled <= 0 {
		t.Errorf("no crash hit a server mid-wake (wakes %d, completed %d, in flight %d); the table does not cover cancellation",
			c.Wakes(), c.WakesCompleted(), inflight)
	}
}
