package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/engine"
)

// statLines renders interval stats the way the interval stream carries
// them: json.Marshal of each, one per line.
func statLines(t *testing.T, stats []cluster.IntervalStats) []byte {
	t.Helper()
	var b []byte
	for _, st := range stats {
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, raw...), '\n')
	}
	return b
}

// TestIntervalsMatchDirectRun pins the interval stream end to end on
// both stores: every cell of a sweep, tailed live and re-read once done,
// is json.Marshal of each interval of the same cell run directly, one
// per line. A cancelled run's stream is its intervals so far, the same
// bytes again, closed by its status line.
func TestIntervalsMatchDirectRun(t *testing.T) {
	const body = `{"kind":"cluster","sizes":[60,80],"band":"high","seeds":[3],"intervals":12}`
	var spec engine.SweepSpec
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		t.Fatal(err)
	}
	direct, err := engine.NewPool(1).RunSweep(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, sk := range storeKinds {
		t.Run(sk.name, func(t *testing.T) {
			// The blocker holds the single worker, so the tails attach
			// before the sweep's first interval.
			s, ts := serverWith(t, sk.open(t), 1)
			_, blocker := postRun(t, ts, `{"size":20000,"intervals":2000}`, false)
			_, run := postRun(t, ts, body, false)
			live := make([][]byte, len(direct.Cells))
			var wg sync.WaitGroup
			for cell := range live {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if live[cell], err = fetch(fmt.Sprintf("%s/v1/runs/%s/intervals?cell=%d", ts.URL, run.ID, cell)); err != nil {
						t.Error(err)
					}
				}()
			}
			time.Sleep(50 * time.Millisecond)
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/runs/"+blocker.ID, nil)
			if resp, err := http.DefaultClient.Do(req); err != nil {
				t.Fatal(err)
			} else {
				resp.Body.Close()
			}
			wg.Wait()
			s.Wait()
			for cell := range live {
				want := statLines(t, direct.Cells[cell].Cluster.Stats)
				if !bytes.Equal(live[cell], want) {
					t.Errorf("cell %d: live intervals differ from the direct run's:\ngot:  %s\nwant: %s", cell, live[cell], want)
				}
				done := getBody(t, fmt.Sprintf("%s/v1/runs/%s/intervals?cell=%d", ts.URL, run.ID, cell))
				if !bytes.Equal(done, want) {
					t.Errorf("cell %d: finished intervals differ from the direct run's:\ngot:  %s\nwant: %s", cell, done, want)
				}
			}

			snap := s.snapshot(blocker.ID)
			if snap.Status != StatusCancelled {
				t.Fatalf("blocker status = %s", snap.Status)
			}
			got := getBody(t, ts.URL+"/v1/runs/"+blocker.ID+"/intervals")
			status, _ := json.Marshal(map[string]string{"status": snap.Status, "error": snap.Error})
			want := append(status, '\n')
			if n := bytes.Count(got, []byte("\n")) - 1; n > 0 {
				res, err := engine.NewPool(1).RunScenario(context.Background(), engine.Scenario{Size: 20000, Intervals: n})
				if err != nil {
					t.Fatal(err)
				}
				want = append(statLines(t, res.Cluster.Stats), want...)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("cancelled run's intervals:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}
