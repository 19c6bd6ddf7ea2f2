package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/store"
	"ealb/internal/trace"
)

// sliceTracer collects every decision event it receives.
type sliceTracer struct {
	mu     sync.Mutex
	events []trace.Event
}

func (s *sliceTracer) Event(e trace.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *sliceTracer) Phase(trace.Phase, time.Duration) {}

// directTrace runs a cluster cell straight through cluster.New and
// RunIntervals with a collecting tracer and renders the events the way
// the service streams them: json.Marshal of each, one per line.
func directTrace(t *testing.T, sc engine.Scenario) []byte {
	t.Helper()
	band, err := engine.ParseBand(sc.Band)
	if err != nil {
		t.Fatal(err)
	}
	sleep, err := engine.ParseSleepPolicy(sc.Sleep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(sc.Size, band, sc.SeedValue())
	cfg.Sleep = sleep
	tr := &sliceTracer{}
	cfg.Tracer = tr
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunIntervals(context.Background(), sc.Intervals); err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, e := range tr.events {
		raw, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		out = append(append(out, raw...), '\n')
	}
	return out
}

// fetch returns the body of a GET that must answer 200.
func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	return body, err
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	body, err := fetch(url)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// storeKinds builds one server per run-store backend.
var storeKinds = []struct {
	name string
	open func(t *testing.T) store.RunStore
}{
	{"memory", func(*testing.T) store.RunStore { return store.NewMemory() }},
	{"disk", func(t *testing.T) store.RunStore {
		d, err := store.OpenDisk(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}},
}

func serverWith(t *testing.T, st store.RunStore, workers int) (*Server, *httptest.Server) {
	t.Helper()
	s := NewWith(engine.NewPool(workers), Options{Store: st})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { s.Wait(); ts.Close() })
	return s, ts
}

// TestTraceMatchesDirectRun pins the traced path end to end: GET /trace
// of every cell of a traced sweep — tailed live while the run executes
// and re-read after it finished, on the memory and disk stores — is
// byte-identical to json.Marshal of the events a collecting tracer
// receives when the same cell runs directly, one per line.
func TestTraceMatchesDirectRun(t *testing.T) {
	const body = `{"kind":"cluster","sizes":[150,200],"band":"low","seeds":[5],"intervals":40,"trace":true}`
	for _, sk := range storeKinds {
		t.Run(sk.name, func(t *testing.T) {
			// A long run holds the single worker, so the traced sweep is
			// still waiting for it when the trace readers attach: they
			// tail it live from its first event.
			s, ts := serverWith(t, sk.open(t), 1)
			_, blocker := postRun(t, ts, `{"size":20000,"intervals":2000}`, false)
			resp, run := postRun(t, ts, body, false)
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("POST status = %d", resp.StatusCode)
			}
			cells := run.Spec.Sizes
			live := make([][]byte, len(cells))
			var wg sync.WaitGroup
			for cell := range cells {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if live[cell], err = fetch(fmt.Sprintf("%s/v1/runs/%s/trace?cell=%d", ts.URL, run.ID, cell)); err != nil {
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
			snap := s.fullSnapshot(run.ID)
			if snap.Status != StatusDone {
				t.Fatalf("run status = %s (%s)", snap.Status, snap.Error)
			}
			for cell := range cells {
				want := directTrace(t, snap.Sweep.Cells[cell].Scenario)
				if len(want) == 0 {
					t.Fatal("direct run traced no events")
				}
				if !bytes.Equal(live[cell], want) {
					t.Errorf("cell %d: live trace (%d bytes) differs from the direct run's (%d bytes)", cell, len(live[cell]), len(want))
				}
				stored := getBody(t, fmt.Sprintf("%s/v1/runs/%s/trace?cell=%d", ts.URL, run.ID, cell))
				if !bytes.Equal(stored, want) {
					t.Errorf("cell %d: finished trace (%d bytes) differs from the direct run's (%d bytes)", cell, len(stored), len(want))
				}
			}
		})
	}
}

// TestEvictedResultServedFromStore: once more than residentResults runs
// finish, the oldest done run's result leaves memory, and GET run and
// GET intervals answer byte-identically from the store's record.
func TestEvictedResultServedFromStore(t *testing.T) {
	for _, sk := range storeKinds {
		t.Run(sk.name, func(t *testing.T) {
			s, ts := serverWith(t, sk.open(t), 2)
			_, first := postRun(t, ts, `{"sizes":[20,30],"intervals":4}`, true)
			runURL := ts.URL + "/v1/runs/" + first.ID
			wantRun := getBody(t, runURL)
			wantIv := getBody(t, runURL+"/intervals?cell=1")
			for i := 0; i < residentResults; i++ {
				postRun(t, ts, fmt.Sprintf(`{"size":20,"intervals":3,"seed":%d}`, i+1), true)
			}
			if snap := s.snapshot(first.ID); !snap.stored || snap.Sweep != nil {
				t.Fatalf("oldest done run still resident: stored=%v", snap.stored)
			}
			if got := getBody(t, runURL); !bytes.Equal(got, wantRun) {
				t.Errorf("GET run of an evicted run changed:\ngot:  %s\nwant: %s", got, wantRun)
			}
			if got := getBody(t, runURL+"/intervals?cell=1"); !bytes.Equal(got, wantIv) {
				t.Errorf("GET intervals of an evicted run changed:\ngot:  %s\nwant: %s", got, wantIv)
			}
		})
	}
}
