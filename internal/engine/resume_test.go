package engine

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// runHookedResume runs spec twice — uninterrupted, then resumed from a
// checkpoint covering the cells selected by keep — and asserts the
// marshaled results are byte-identical. The checkpointed results are
// round-tripped through JSON first, exactly as the service's store does,
// so the test also pins that the encoding loses nothing.
func runHookedResume(t *testing.T, body string, keep func(cell int) bool) {
	t.Helper()
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	full, err := NewPool(3).RunExpandedHooked(ctx, ex, RunHooks{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}

	completed := make(map[int]Result)
	for ci := range ex.Cells() {
		if !keep(ci) {
			continue
		}
		raw, err := json.Marshal(full.Cells[ci])
		if err != nil {
			t.Fatal(err)
		}
		var res Result
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		completed[ci] = res
	}
	if len(completed) == 0 || len(completed) == len(ex.Cells()) {
		t.Fatalf("checkpoint covers %d of %d cells; the test wants a strict subset",
			len(completed), len(ex.Cells()))
	}

	var mu sync.Mutex
	fired := make(map[int]bool)
	resumed, err := NewPool(3).RunExpandedHooked(ctx, ex, RunHooks{
		Completed: completed,
		CellDone: func(cell int, res Result) {
			mu.Lock()
			defer mu.Unlock()
			if fired[cell] {
				t.Errorf("CellDone fired twice for cell %d", cell)
			}
			fired[cell] = true
			if _, ok := completed[cell]; ok {
				t.Errorf("CellDone fired for checkpointed cell %d", cell)
			}
			if res.Scenario.Kind == "" {
				t.Errorf("CellDone cell %d result has no scenario", cell)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("resumed sweep differs from uninterrupted run:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	mu.Lock()
	defer mu.Unlock()
	if wantFired := len(ex.Cells()) - len(completed); len(fired) != wantFired {
		t.Fatalf("CellDone fired for %d cells, want %d", len(fired), wantFired)
	}
}

// TestResumeClusterByteIdentical: a cluster sweep (with baseline
// comparisons, so cells span two jobs) resumed from a partial checkpoint
// reproduces the uninterrupted result bit-for-bit.
func TestResumeClusterByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"sizes":[40,60],"seeds":[1,2],"intervals":6,"compare_baseline":true}`,
		func(cell int) bool { return cell%2 == 0 })
}

// TestResumeClusterChurnByteIdentical covers the availability panels:
// resumed churny cells re-derive their failure streams identically.
func TestResumeClusterChurnByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"sizes":[40],"seeds":[1,2,3],"intervals":6,"mtbfs":[5000],"mttrs":[600]}`,
		func(cell int) bool { return cell == 1 })
}

// TestResumeFarmByteIdentical: farm cells resume identically (each cell
// is one job, advancing its clusters serially in multi-cell sweeps).
func TestResumeFarmByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"kind":"farm","cluster_counts":[2,3],"sizes":[20],"seeds":[7],"intervals":4}`,
		func(cell int) bool { return cell == 0 })
}

// TestResumePolicyByteIdentical: policy cells (a whole §3 line-up per
// cell) resume identically.
func TestResumePolicyByteIdentical(t *testing.T) {
	runHookedResume(t,
		`{"kind":"policy","profiles":["constant","diurnal"],"server_counts":[20],"horizon_seconds":600,"seeds":[5]}`,
		func(cell int) bool { return cell == 1 })
}

// TestCellDoneCompleteSweep: with no checkpoint, CellDone fires exactly
// once per cell and the hooked result equals the plain one.
func TestCellDoneCompleteSweep(t *testing.T) {
	ctx := context.Background()
	var spec SweepSpec
	if err := json.Unmarshal([]byte(`{"sizes":[40,60],"seeds":[1],"intervals":5,"compare_baseline":true}`), &spec); err != nil {
		t.Fatal(err)
	}
	ex, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	done := make(map[int]Result)
	res, err := NewPool(4).RunExpandedHooked(ctx, ex, RunHooks{
		CellDone: func(cell int, r Result) {
			mu.Lock()
			defer mu.Unlock()
			done[cell] = r
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(done) != len(res.Cells) {
		t.Fatalf("CellDone fired for %d cells, want %d", len(done), len(res.Cells))
	}
	for ci, r := range done {
		raw1, _ := json.Marshal(r)
		raw2, _ := json.Marshal(res.Cells[ci])
		if string(raw1) != string(raw2) {
			t.Errorf("cell %d: CellDone result differs from final result", ci)
		}
		if r.AlwaysOnJoules == 0 || r.JoulesSaved == 0 {
			t.Errorf("cell %d: CellDone fired before the baseline comparison landed: %+v", ci, r)
		}
	}
}
