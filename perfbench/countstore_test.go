package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"ealb/internal/engine"
	"ealb/internal/serve"
	"ealb/internal/store"
)

var errFake = errors.New("fake store failure")

// logStore is a RunStore that logs every call with its arguments and
// answers with fixed values, some of them errors.
type logStore struct{ log []string }

func (s *logStore) add(format string, a ...any) { s.log = append(s.log, fmt.Sprintf(format, a...)) }

func (s *logStore) NewID() (string, int64, error) { s.add("NewID"); return "run-000007", 7, nil }
func (s *logStore) PutRun(r store.Record) error {
	raw, _ := json.Marshal(r)
	s.add("PutRun %s", raw)
	return nil
}
func (s *logStore) GetRun(id string) (store.Record, bool, error) {
	s.add("GetRun %s", id)
	return store.Record{ID: id, Spec: json.RawMessage(`{"size":9}`)}, true, nil
}
func (s *logStore) ListRuns() ([]store.Record, error) {
	s.add("ListRuns")
	return []store.Record{{ID: "a"}, {ID: "b", Result: json.RawMessage(`[1]`)}}, nil
}
func (s *logStore) AppendInterval(id string, cell int, line []byte) error {
	s.add("AppendInterval %s %d %q", id, cell, line)
	return nil
}
func (s *logStore) Intervals(id string, cell int) ([][]byte, error) {
	s.add("Intervals %s %d", id, cell)
	return [][]byte{[]byte(`{"Index":1}`), []byte(`{"Index":2}`)}, nil
}
func (s *logStore) DropIntervals(id string) error { s.add("DropIntervals %s", id); return nil }
func (s *logStore) TruncateIntervals(id string, keep func(int) bool) error {
	s.add("TruncateIntervals %s %v %v", id, keep(0), keep(1))
	return nil
}
func (s *logStore) AppendTrace(id string, cell int, line []byte) error {
	s.add("AppendTrace %s %d %q", id, cell, line)
	return nil
}
func (s *logStore) Trace(id string, cell int) ([][]byte, error) {
	s.add("Trace %s %d", id, cell)
	return [][]byte{[]byte(`{"kind":"move"}`)}, nil
}
func (s *logStore) TruncateTrace(id string, keep func(int) bool) error {
	s.add("TruncateTrace %s %v %v", id, keep(0), keep(1))
	return nil
}
func (s *logStore) PutCell(id string, c store.CellResult) error {
	s.add("PutCell %s %d %s", id, c.Cell, c.Result)
	return errFake
}
func (s *logStore) Cells(id string) ([]store.CellResult, error) {
	s.add("Cells %s", id)
	return []store.CellResult{{Cell: 3, Result: json.RawMessage(`{"x":1}`)}}, nil
}
func (s *logStore) DropCells(id string) error { s.add("DropCells %s", id); return nil }
func (s *logStore) Claim(id, owner string, ttl time.Duration) (bool, error) {
	s.add("Claim %s %s %v", id, owner, ttl)
	return false, errFake
}
func (s *logStore) Release(id, owner string) error { s.add("Release %s %s", id, owner); return nil }
func (s *logStore) Close() error                   { s.add("Close"); return nil }

// exercise calls every RunStore method once and returns what each
// answered.
func exercise(st store.RunStore) []any {
	keepEven := func(cell int) bool { return cell%2 == 0 }
	var out []any
	add := func(v ...any) { out = append(out, v...) }
	add(st.NewID())
	add(st.PutRun(store.Record{ID: "run-1", Seq: 1, Status: "done", Spec: json.RawMessage(`{"a":1}`), Result: json.RawMessage(`{"b":2}`), Error: "e"}))
	add(st.GetRun("run-1"))
	add(st.ListRuns())
	add(st.AppendInterval("run-1", 2, []byte(`{"Index":1}`)))
	add(st.Intervals("run-1", 2))
	add(st.DropIntervals("run-1"))
	add(st.TruncateIntervals("run-1", keepEven))
	add(st.AppendTrace("run-1", 0, []byte(`{"kind":"report","interval":1}`)))
	add(st.Trace("run-1", 0))
	add(st.TruncateTrace("run-1", keepEven))
	add(st.PutCell("run-1", store.CellResult{Cell: 1, Result: json.RawMessage(`{"c":3}`)}))
	add(st.Cells("run-1"))
	add(st.DropCells("run-1"))
	add(st.Claim("run-1", "me", time.Minute))
	add(st.Release("run-1", "me"))
	add(st.Close())
	return out
}

func TestCountStoreForwardsEveryCall(t *testing.T) {
	if n := reflect.TypeOf((*store.RunStore)(nil)).Elem().NumMethod(); n != 17 {
		t.Fatalf("store.RunStore has %d methods; exercise covers 17", n)
	}
	direct, inner := &logStore{}, &logStore{}
	want := exercise(direct)
	cs := newCountStore(inner)
	got := exercise(cs)
	if !reflect.DeepEqual(inner.log, direct.log) {
		t.Errorf("calls reaching the inner store differ:\n got %q\nwant %q", inner.log, direct.log)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("answers differ:\n got %v\nwant %v", got, want)
	}

	c := cs.snapshot()
	var calls int64
	for _, n := range c.calls {
		calls += n
	}
	if calls != 17 || c.errors != 2 || c.reports != 1 {
		t.Errorf("counted %d calls, %d errors, %d reports; want 17, 2, 1", calls, c.errors, c.reports)
	}
	if got := c.calls[kindRead]; got != 5 {
		t.Errorf("read calls = %d, want 5 (GetRun, ListRuns, Intervals, Trace, Cells)", got)
	}
	// Written payload: PutRun spec+result+error (7+7+1), the interval
	// line (11), the trace line (30) and the cell result (7).
	if got := c.writeBytes(); got != 15+11+30+7 {
		t.Errorf("written payload = %d bytes, want %d", got, 15+11+30+7)
	}
}

// sweepThrough runs one small traced sweep through a service on st and
// returns the answers of every read route plus the store's records and
// streams, with wall-clock timestamps cleared.
func sweepThrough(t *testing.T, st store.RunStore) []string {
	t.Helper()
	srv := serve.NewWith(engine.NewPool(2), serve.Options{Store: st})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	get := func(method, path, body string) string {
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := hs.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d, %v: %s", method, path, resp.StatusCode, err, raw)
		}
		return string(raw)
	}
	post := get(http.MethodPost, "/v1/runs?wait=1", `{"sizes":[20],"seeds":[1,2],"intervals":5,"trace":true}`)
	var doc runDoc
	if err := json.Unmarshal([]byte(post), &doc); err != nil {
		t.Fatal(err)
	}
	cells, err := doc.cellsDigest()
	if err != nil {
		t.Fatal(err)
	}
	out := []string{doc.ID, doc.Status, fmt.Sprintf("%x", cells)}
	for cell := 0; cell < 2; cell++ {
		q := fmt.Sprintf("?cell=%d", cell)
		out = append(out,
			get(http.MethodGet, "/v1/runs/"+doc.ID+"/intervals"+q, ""),
			get(http.MethodGet, "/v1/runs/"+doc.ID+"/trace"+q, ""))
	}
	recs, err := st.ListRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		r.Created, r.Started, r.Finished = time.Time{}, nil, nil
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(raw))
		for cell := 0; cell < 2; cell++ {
			iv, err1 := st.Intervals(r.ID, cell)
			tr, err2 := st.Trace(r.ID, cell)
			if err := errors.Join(err1, err2); err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprintf("%q", iv), fmt.Sprintf("%q", tr))
		}
		cps, err := st.Cells(r.ID)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%d checkpoints", len(cps)))
	}
	return out
}

func TestCountStoreLeavesServeOutputUnchanged(t *testing.T) {
	for _, disk := range []bool{false, true} {
		open := func() store.RunStore {
			if !disk {
				return store.NewMemory()
			}
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
		plain, inner := open(), open()
		cs := newCountStore(inner)
		sink := &spanSink{}
		cs.sink.Store(sink)
		want := sweepThrough(t, plain)
		got := sweepThrough(t, cs)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("disk=%v: service output through the decorator differs:\n got %q\nwant %q", disk, got, want)
		}
		c := cs.snapshot()
		if c.calls[kindAppendTrace] == 0 || c.calls[kindAppendInterval] != 10 {
			t.Errorf("disk=%v: counted %d trace and %d interval appends; want >0 and 10", disk, c.calls[kindAppendTrace], c.calls[kindAppendInterval])
		}
		var calls int64
		for _, n := range c.calls {
			calls += n
		}
		if int64(len(sink.spans)) != calls {
			t.Errorf("disk=%v: %d spans for %d calls", disk, len(sink.spans), calls)
		}
		plain.Close()
		cs.Close()
	}
}

func TestSelfTimeCountsOverlapOnce(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	s := &spanSet{epoch: t0}
	root := s.add(span{name: "op", parent: -1, start: at(0), end: at(100)})
	post := s.add(span{name: routePost, parent: root, start: at(0), end: at(80)})
	s.add(span{name: "store.append_trace", parent: post, start: at(10), end: at(30)})
	s.add(span{name: "store.append_trace", parent: post, start: at(20), end: at(40)}) // overlaps the first
	s.add(span{name: "store.put_run", parent: post, start: at(70), end: at(90)})      // runs past its parent
	self := s.selfTimes()
	want := []time.Duration{20, 40, 20, 20, 20}
	for i, w := range want {
		if self[i] != w*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i, s.spans[i].name, self[i], w*time.Millisecond)
		}
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.9, 4.6}, {0, 1}, {1, 5}} {
		if got := quantile(v, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
