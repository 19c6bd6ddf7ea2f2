package engine

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

func mustExpand(t *testing.T, spec SweepSpec) (SweepSpec, []Scenario) {
	t.Helper()
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return ex.Spec(), ex.Cells()
}

// TestSweepExpandCrossProduct is the acceptance shape of the v2 API: one
// request with sizes×seeds lists expands to the full cross-product in
// deterministic order.
func TestSweepExpandCrossProduct(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[100,1000],"seeds":[1,2,3],"intervals":8}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 6 {
		t.Fatalf("expanded %d cells, want 6", len(cells))
	}
	wantSizes := []int{100, 100, 100, 1000, 1000, 1000}
	wantSeeds := []uint64{1, 2, 3, 1, 2, 3}
	for i, c := range cells {
		if c.Size != wantSizes[i] || c.SeedValue() != wantSeeds[i] {
			t.Errorf("cell %d = size %d seed %d, want size %d seed %d",
				i, c.Size, c.SeedValue(), wantSizes[i], wantSeeds[i])
		}
		if c.Band != "low" || c.Sleep != "auto" || c.Intervals != 8 {
			t.Errorf("cell %d defaults not normalized: %+v", i, c)
		}
	}
}

// TestSweepV1BodyIsSingleCell: a v1 scalar body expands to exactly its
// one v1 cell, unchanged.
func TestSweepV1BodyIsSingleCell(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"cluster","size":40,"band":"low","seed":2014,"intervals":5,"compare_baseline":true}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	if !spec.SingleRun() {
		t.Error("v1 body not recognized as a single run")
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 1 {
		t.Fatalf("expanded %d cells, want 1", len(cells))
	}
	want := Scenario{Kind: KindCluster, Size: 40, Band: "low", Seed: SeedOf(2014),
		Intervals: 5, Sleep: "auto", CompareBaseline: true}
	if !reflect.DeepEqual(cells[0], want) {
		t.Errorf("cell = %+v, want %+v", cells[0], want)
	}
}

// TestSeedZeroIsReachable is the regression test for the seed-0 wart:
// an explicit seed 0 must survive normalization (it used to be silently
// rewritten to the 2014 default), while an absent seed still defaults.
func TestSeedZeroIsReachable(t *testing.T) {
	var withZero Scenario
	if err := json.Unmarshal([]byte(`{"size":40,"seed":0}`), &withZero); err != nil {
		t.Fatal(err)
	}
	if got := withZero.Normalized().SeedValue(); got != 0 {
		t.Errorf("explicit seed 0 normalized to %d", got)
	}

	var absent Scenario
	if err := json.Unmarshal([]byte(`{"size":40}`), &absent); err != nil {
		t.Fatal(err)
	}
	if got := absent.Normalized().SeedValue(); got != DefaultSeed {
		t.Errorf("absent seed normalized to %d, want default %d", got, DefaultSeed)
	}

	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":40,"intervals":3,"seeds":[0,1]}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if cells[0].SeedValue() != 0 || cells[1].SeedValue() != 1 {
		t.Errorf("seed axis [0,1] expanded to %d,%d", cells[0].SeedValue(), cells[1].SeedValue())
	}
}

func TestSweepExpandRejectsBadSpecs(t *testing.T) {
	for _, body := range []string{
		`{"kind":"quantum"}`,                    // bad kind
		`{"size":100,"sizes":[200]}`,            // scalar+list conflict
		`{"seed":1,"seeds":[2]}`,                // scalar+list conflict
		`{"band":"low","bands":["high"]}`,       // scalar+list conflict
		`{"sizes":[1],"intervals":3}`,           // invalid cell (size 1)
		`{"bands":["sideways"]}`,                // invalid band
		`{"replications":-2}`,                   // negative replications
		`{"sizes":[100],"replications":100000}`, // blows the job budget
		// Overflow probe: 2 seeds × 2^62 replications wraps an int64
		// product negative; the division-based budget check must still
		// reject it.
		`{"seeds":[1,2],"replications":4611686018427387904}`,
		`{"profiles":["burst"]}`,          // policy axis on a cluster sweep
		`{"kind":"policy","sizes":[100]}`, // cluster axis on a policy sweep
	} {
		var spec SweepSpec
		if err := json.Unmarshal([]byte(body), &spec); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if _, err := spec.Expand(); err == nil {
			t.Errorf("spec %s unexpectedly expanded", body)
		}
	}
}

// TestSweepBudgetRejectsWithoutMaterializing: the job budget must be
// enforced arithmetically, before the cross-product exists — a tiny
// request body must not be able to force a multi-gigabyte expansion.
func TestSweepBudgetRejectsWithoutMaterializing(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":50,"intervals":5,"replications":2000000000}`), &spec); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := spec.Expand()
	if err == nil {
		t.Fatal("two-billion-replication spec unexpectedly expanded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("budget rejection took %v; it must not materialize cells", elapsed)
	}
}

func TestSweepReplicationsDeriveSeeds(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"size":40,"intervals":3,"seeds":[10],"replications":3}`), &spec); err != nil {
		t.Fatal(err)
	}
	_, cells := mustExpand(t, spec)
	if len(cells) != 3 {
		t.Fatalf("expanded %d cells, want 3", len(cells))
	}
	for i, c := range cells {
		if c.SeedValue() != 10+uint64(i) {
			t.Errorf("replication %d seed = %d, want %d", i, c.SeedValue(), 10+uint64(i))
		}
	}
}

// TestRunSweepMatchesIndividualRuns is the v2 acceptance criterion: a
// sweep's per-cell results are bit-identical to running the same cells
// individually through RunScenario.
func TestRunSweepMatchesIndividualRuns(t *testing.T) {
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[1,2,3],"intervals":6}`), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 6 {
		t.Fatalf("sweep returned %d cells, want 6", len(res.Cells))
	}
	_, cells := mustExpand(t, spec)
	single := NewPool(1)
	for i, cell := range cells {
		direct, err := single.RunScenario(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Cells[i], direct) {
			t.Errorf("cell %d differs from its individual run", i)
		}
	}
	if len(res.Aggregates) != 2 {
		t.Fatalf("got %d aggregates, want 2 (one per size)", len(res.Aggregates))
	}
	for _, agg := range res.Aggregates {
		if agg.Cells != 3 {
			t.Errorf("aggregate %q covers %d cells, want 3", agg.Group, agg.Cells)
		}
		if agg.Energy.Mean <= 0 || agg.Energy.Min > agg.Energy.Max || agg.Energy.StdDev < 0 {
			t.Errorf("aggregate %q has implausible energy stat: %+v", agg.Group, agg.Energy)
		}
		if agg.Energy.Mean < agg.Energy.Min || agg.Energy.Mean > agg.Energy.Max {
			t.Errorf("aggregate %q mean outside [min,max]: %+v", agg.Group, agg.Energy)
		}
	}
}

func TestRunSweepPolicyProfiles(t *testing.T) {
	var spec SweepSpec
	body := `{"kind":"policy","profiles":["constant","burst"],"server_counts":[20],"horizon_seconds":600,"seeds":[1,2]}`
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	res, err := NewPool(4).RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("sweep returned %d cells, want 4", len(res.Cells))
	}
	for i, c := range res.Cells {
		if len(c.Policies) == 0 {
			t.Errorf("cell %d has no policy results", i)
		}
	}
	if len(res.Aggregates) != 2 {
		t.Errorf("got %d aggregates, want 2 (one per profile)", len(res.Aggregates))
	}
}

// TestRunSweepCancellationStopsMidSimulation proves engine-level context
// cancellation stops a cluster simulation mid-sweep: the observer
// cancels after the second interval of a long run, and the sweep must
// come back with ctx.Err() long before the requested interval count.
func TestRunSweepCancellationStopsMidSimulation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[100],"seeds":[1],"intervals":5000}`), &spec); err != nil {
		t.Fatal(err)
	}
	seen := 0
	_, err := runObserved(t, ctx, NewPool(1), spec, func(cell int, st any) {
		seen++
		if seen == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sweep error = %v, want context.Canceled", err)
	}
	if seen > 3 {
		t.Errorf("simulation ran %d intervals after cancellation", seen)
	}
}

// TestRunScenarioCancelledBeforeStart: a cancelled context fails fast.
func TestRunScenarioCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := NewPool(2)
	if _, err := p.RunScenario(ctx, Scenario{Size: 40, Intervals: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if st := p.Stats(); st.JobsCompleted != 0 || st.JobsFailed != 1 {
		t.Errorf("jobs completed/failed = %d/%d, want 0/1", st.JobsCompleted, st.JobsFailed)
	}
}

// TestSweepObserverSeesEveryInterval: the live-tail hook receives every
// interval of every (non-baseline) cell, keyed by cell index.
func TestSweepObserverSeesEveryInterval(t *testing.T) {
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[5],"intervals":4,"compare_baseline":true}`), &spec); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := make(map[int]int)
	res, err := runObserved(t, context.Background(), NewPool(4), spec, func(cell int, st any) {
		mu.Lock()
		counts[cell]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("got %d cells", len(res.Cells))
	}
	for cell := 0; cell < 2; cell++ {
		if counts[cell] != 4 {
			t.Errorf("cell %d observed %d intervals, want 4", cell, counts[cell])
		}
		if res.Cells[cell].AlwaysOnJoules <= 0 {
			t.Errorf("cell %d baseline missing", cell)
		}
	}
}

// runObserved expands spec and runs it on p with a live interval
// observer.
func runObserved(t *testing.T, ctx context.Context, p *Pool, spec SweepSpec, observe func(cell int, st any)) (SweepResult, error) {
	t.Helper()
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return p.RunExpandedHooked(ctx, ex, RunHooks{Observe: observe})
}
