package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestSubmitSweepReturnsCellsAndAggregates is the acceptance criterion
// of the v2 API: one body with axis lists returns the full cross-product
// of per-cell results plus aggregates, and each cell matches the same
// scenario submitted individually as a v1 body.
func TestSubmitSweepReturnsCellsAndAggregates(t *testing.T) {
	_, ts := newTestServer(t)

	resp, run := postRun(t, ts, `{"sizes":[40,60],"seeds":[1,2,3],"intervals":4}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if run.Status != StatusDone || run.Sweep == nil {
		t.Fatalf("run = %+v", run)
	}
	if len(run.Sweep.Cells) != 6 {
		t.Fatalf("sweep has %d cells, want 6", len(run.Sweep.Cells))
	}
	if run.Scenario != nil || run.Result != nil {
		t.Error("sweep run leaked v1 single-run fields")
	}
	if len(run.Sweep.Aggregates) != 2 {
		t.Fatalf("sweep has %d aggregates, want 2", len(run.Sweep.Aggregates))
	}

	// Spot-check two cells against individually submitted v1 bodies.
	for _, probe := range []struct {
		cell int
		body string
	}{
		{0, `{"size":40,"seed":1,"intervals":4}`},
		{5, `{"size":60,"seed":3,"intervals":4}`},
	} {
		_, single := postRun(t, ts, probe.body, true)
		if single.Status != StatusDone || single.Result == nil || single.Result.Cluster == nil {
			t.Fatalf("v1 probe = %+v", single)
		}
		got := run.Sweep.Cells[probe.cell]
		if got.Cluster == nil || got.Cluster.Energy != single.Result.Cluster.Energy {
			t.Errorf("sweep cell %d energy differs from its individual run", probe.cell)
		}
	}
}

// TestV1BodyRoundTripsUnchanged: a PR-1 body still produces the v1
// response shape — scenario + result, no sweep fields.
func TestV1BodyRoundTripsUnchanged(t *testing.T) {
	_, ts := newTestServer(t)
	resp, run := postRun(t, ts,
		`{"kind":"cluster","size":40,"band":"low","seed":2014,"intervals":5,"compare_baseline":true}`, true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	if run.Scenario == nil || run.Result == nil || run.Sweep != nil || run.Spec != nil {
		t.Fatalf("v1 body did not produce the v1 shape: %+v", run)
	}
	if run.Scenario.SeedValue() != 2014 || run.Result.Cluster == nil {
		t.Errorf("v1 scenario/result wrong: %+v", run)
	}
}

// TestSeedZeroSurvivesSubmission is the HTTP half of the seed-0
// regression: an explicit `"seed":0` must run seed 0, not the default.
func TestSeedZeroSurvivesSubmission(t *testing.T) {
	_, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":40,"intervals":3,"seed":0}`, true)
	if run.Status != StatusDone || run.Scenario == nil {
		t.Fatalf("run = %+v", run)
	}
	if run.Scenario.Seed == nil || *run.Scenario.Seed != 0 {
		t.Errorf("seed 0 was rewritten: %+v", run.Scenario.Seed)
	}
}

// TestCancelRun: DELETE returns promptly and the run lands in the
// cancelled status.
func TestCancelRun(t *testing.T) {
	s, ts := newTestServer(t)

	// Long enough that it cannot finish before the DELETE arrives.
	resp, run := postRun(t, ts, `{"size":500,"intervals":10000}`, false)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+run.ID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE status = %d", del.StatusCode)
	}
	s.Wait()

	final := s.snapshot(run.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("run status = %q, want %q", final.Status, StatusCancelled)
	}
	if final.Error == "" || final.Finished == nil {
		t.Errorf("cancelled run missing error/finish: %+v", final)
	}

	// A second DELETE conflicts: the run is already terminal.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+run.ID, nil)
	del2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	del2.Body.Close()
	if del2.StatusCode != http.StatusConflict {
		t.Errorf("second DELETE status = %d, want 409", del2.StatusCode)
	}
}

func TestCancelUnknownRun(t *testing.T) {
	_, ts := newTestServer(t)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/run-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestLiveIntervalTail: the intervals endpoint streams a *running* run —
// the GET goes out while the simulation executes and still collects
// every interval.
func TestLiveIntervalTail(t *testing.T) {
	s, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":60,"intervals":10}`, false)

	resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/intervals")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	dec := json.NewDecoder(resp.Body)
	lines := 0
	for dec.More() {
		var st struct{ Index int }
		if err := dec.Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Index != lines+1 {
			t.Errorf("interval %d arrived out of order (index %d)", lines, st.Index)
		}
		lines++
	}
	if lines != 10 {
		t.Errorf("tailed %d intervals, want 10", lines)
	}
	s.Wait()
}

// TestIntervalTailSweepCell: ?cell= selects one cell of a sweep.
func TestIntervalTailSweepCell(t *testing.T) {
	_, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"sizes":[40,60],"intervals":4}`, true)
	if run.Status != StatusDone {
		t.Fatalf("run = %+v", run)
	}
	for cell := 0; cell < 2; cell++ {
		resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/intervals?cell=%d", ts.URL, run.ID, cell))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if n := strings.Count(string(raw), "\n"); n != 4 {
			t.Errorf("cell %d streamed %d intervals, want 4", cell, n)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/runs/" + run.ID + "/intervals?cell=7")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("out-of-range cell status = %d, want 404", resp.StatusCode)
	}
}

// TestWaitFailedRunReturns422: a synchronous run that fails during
// execution must not answer 200.
func TestWaitFailedRunReturns422(t *testing.T) {
	_, ts := newTestServer(t)
	// horizon_seconds below the farm's 10 s decision slot passes spec
	// validation but fails the farm config check at execution time.
	resp, run := postRun(t, ts, `{"kind":"policy","horizon_seconds":5}`, true)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("POST status = %d, want 422", resp.StatusCode)
	}
	if run.Status != StatusFailed || run.Error == "" {
		t.Errorf("run = %+v", run)
	}
}

func TestListFilters(t *testing.T) {
	_, ts := newTestServer(t)
	postRun(t, ts, `{"size":40,"intervals":2}`, true)
	postRun(t, ts, `{"size":40,"intervals":3}`, true)
	postRun(t, ts, `{"kind":"policy","horizon_seconds":5}`, true) // fails

	fetch := func(query string) []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	} {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/runs" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s status = %d", query, resp.StatusCode)
		}
		var out struct {
			Runs []struct {
				ID     string `json:"id"`
				Status string `json:"status"`
			} `json:"runs"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out.Runs
	}

	if got := fetch(""); len(got) != 3 {
		t.Errorf("unfiltered list has %d runs, want 3", len(got))
	}
	if got := fetch("?status=done"); len(got) != 2 {
		t.Errorf("status=done list has %d runs, want 2", len(got))
	}
	if got := fetch("?status=failed"); len(got) != 1 || got[0].ID != "run-000003" {
		t.Errorf("status=failed list = %+v", got)
	}
	if got := fetch("?limit=1"); len(got) != 1 || got[0].ID != "run-000003" {
		t.Errorf("limit=1 must return the newest run, got %+v", got)
	}
	if got := fetch("?status=done&limit=1"); len(got) != 1 || got[0].ID != "run-000002" {
		t.Errorf("status=done&limit=1 = %+v", got)
	}

	for _, bad := range []string{"?status=sideways", "?limit=0", "?limit=-3", "?limit=x"} {
		resp, err := http.Get(ts.URL + "/v1/runs" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestMetricsExposition: every sample is preceded by # HELP and # TYPE
// lines naming the same metric, per the Prometheus text format.
func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	postRun(t, ts, `{"size":40,"intervals":2}`, true)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// A sample is `name value` or `name{labels} value`; histogram series
	// append _bucket/_sum/_count to the family named by HELP/TYPE.
	sample := regexp.MustCompile(`^([a-z_]+?)(?:_bucket|_sum|_count)?(?:\{[^{}]*\})? (-?[0-9.e+-]+)$`)
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	samples := 0
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Errorf("malformed HELP line %q", line)
				continue
			}
			seenHelp[parts[2]] = true
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[3] != "counter" && parts[3] != "gauge" && parts[3] != "histogram") {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			seenType[parts[2]] = true
		default:
			m := sample.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed sample line %q", line)
				continue
			}
			if !seenHelp[m[1]] || !seenType[m[1]] {
				t.Errorf("metric %q has no preceding HELP/TYPE", m[1])
			}
			samples++
		}
	}
	if samples < 10 {
		t.Errorf("only %d samples exposed", samples)
	}
	for _, want := range []string{
		"ealb_service_runs_done", "ealb_service_runs_cancelled", "ealb_engine_queue_depth",
		"ealb_engine_job_queue_wait_seconds", "ealb_engine_job_run_seconds",
		"ealb_sim_phase_seconds", "ealb_http_request_duration_seconds", "ealb_http_requests_total",
	} {
		if !seenHelp[want] {
			t.Errorf("metric %s missing", want)
		}
	}
}

// TestShutdownDrainsAndCancels: Shutdown rejects new work and, once the
// grace context expires, cancels in-flight runs instead of hanging.
func TestShutdownDrainsAndCancels(t *testing.T) {
	s, ts := newTestServer(t)
	_, run := postRun(t, ts, `{"size":500,"intervals":10000}`, false)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if err == nil {
		t.Fatal("Shutdown returned nil despite expiring grace")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Shutdown took %v", elapsed)
	}
	if got := s.snapshot(run.ID).Status; got != StatusCancelled {
		t.Errorf("in-flight run status = %q, want cancelled", got)
	}

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(`{"size":40,"intervals":2}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining status = %d, want 503", resp.StatusCode)
	}
}
