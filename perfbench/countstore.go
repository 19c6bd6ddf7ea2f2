package main

import (
	"bytes"
	"sync"
	"sync/atomic"
	"time"

	"ealb/internal/store"
)

// storeKind groups RunStore methods into the store layer's metric
// families (store.<kind>.{calls,s,mb}).
type storeKind uint8

const (
	kindAppendInterval storeKind = iota // AppendInterval
	kindAppendTrace                     // AppendTrace
	kindPutRun                          // NewID, PutRun: reserving and writing the run record
	kindPutCell                         // PutCell
	kindRead                            // GetRun, ListRuns, Intervals, Trace, Cells
	kindLease                           // Claim, Release
	kindDrop                            // DropIntervals, DropCells, TruncateIntervals, TruncateTrace
	kindClose                           // Close
	numStoreKinds
)

var storeKindNames = [numStoreKinds]string{
	"append_interval", "append_trace", "put_run", "put_cell", "read", "lease", "drop", "close",
}

// storeCounters is a point-in-time copy of a countStore's counters.
type storeCounters struct {
	calls, ns, bytes [numStoreKinds]int64
	errors           int64
	// reports counts AppendTrace lines that are per-server report
	// events, the bulk of a traced run's volume.
	reports int64
}

func (c storeCounters) sub(o storeCounters) storeCounters {
	for k := range c.calls {
		c.calls[k] -= o.calls[k]
		c.ns[k] -= o.ns[k]
		c.bytes[k] -= o.bytes[k]
	}
	c.errors -= o.errors
	c.reports -= o.reports
	return c
}

// writeBytes is the payload handed to the store: record spec, result
// and error bytes, stream lines and checkpoint results.
func (c storeCounters) writeBytes() int64 {
	return c.bytes[kindAppendInterval] + c.bytes[kindAppendTrace] + c.bytes[kindPutRun] + c.bytes[kindPutCell]
}

// storeSpan is one timed RunStore call, kept while span recording is on.
// run is the run ID the call named; the trace report matches it to the
// client op that created the run.
type storeSpan struct {
	kind       storeKind
	run        string
	start, end time.Time
}

// spanSink collects store spans; nil turns recording off.
type spanSink struct {
	mu    sync.Mutex
	spans []storeSpan
}

func (s *spanSink) add(sp storeSpan) {
	s.mu.Lock()
	s.spans = append(s.spans, sp)
	s.mu.Unlock()
}

// countStore is a store.RunStore decorator that forwards every call to
// inner unchanged and counts calls, wall time, payload bytes and errors
// per kind. With a spanSink attached it also records one span per call.
type countStore struct {
	inner store.RunStore

	calls, ns, bytes [numStoreKinds]atomic.Int64
	errors           atomic.Int64
	reports          atomic.Int64
	sink             atomic.Pointer[spanSink]
}

func newCountStore(inner store.RunStore) *countStore { return &countStore{inner: inner} }

// record accounts one finished call that started at t0.
func (c *countStore) record(k storeKind, run string, t0 time.Time, n int, err error) {
	t1 := time.Now()
	c.calls[k].Add(1)
	c.ns[k].Add(int64(t1.Sub(t0)))
	c.bytes[k].Add(int64(n))
	if err != nil {
		c.errors.Add(1)
	}
	if s := c.sink.Load(); s != nil {
		s.add(storeSpan{kind: k, run: run, start: t0, end: t1})
	}
}

func (c *countStore) snapshot() storeCounters {
	var s storeCounters
	for k := range s.calls {
		s.calls[k] = c.calls[k].Load()
		s.ns[k] = c.ns[k].Load()
		s.bytes[k] = c.bytes[k].Load()
	}
	s.errors = c.errors.Load()
	s.reports = c.reports.Load()
	return s
}

func linesLen(lines [][]byte) int {
	n := 0
	for _, ln := range lines {
		n += len(ln)
	}
	return n
}

func recordLen(r store.Record) int { return len(r.Spec) + len(r.Result) + len(r.Error) }

func (c *countStore) NewID() (string, int64, error) {
	t0 := time.Now()
	id, seq, err := c.inner.NewID()
	c.record(kindPutRun, id, t0, 0, err)
	return id, seq, err
}

func (c *countStore) PutRun(rec store.Record) error {
	t0 := time.Now()
	err := c.inner.PutRun(rec)
	c.record(kindPutRun, rec.ID, t0, recordLen(rec), err)
	return err
}

func (c *countStore) GetRun(id string) (store.Record, bool, error) {
	t0 := time.Now()
	rec, ok, err := c.inner.GetRun(id)
	c.record(kindRead, id, t0, recordLen(rec), err)
	return rec, ok, err
}

func (c *countStore) ListRuns() ([]store.Record, error) {
	t0 := time.Now()
	recs, err := c.inner.ListRuns()
	n := 0
	for _, r := range recs {
		n += recordLen(r)
	}
	c.record(kindRead, "", t0, n, err)
	return recs, err
}

func (c *countStore) AppendInterval(id string, cell int, line []byte) error {
	t0 := time.Now()
	err := c.inner.AppendInterval(id, cell, line)
	c.record(kindAppendInterval, id, t0, len(line), err)
	return err
}

func (c *countStore) Intervals(id string, cell int) ([][]byte, error) {
	t0 := time.Now()
	lines, err := c.inner.Intervals(id, cell)
	c.record(kindRead, id, t0, linesLen(lines), err)
	return lines, err
}

func (c *countStore) DropIntervals(id string) error {
	t0 := time.Now()
	err := c.inner.DropIntervals(id)
	c.record(kindDrop, id, t0, 0, err)
	return err
}

func (c *countStore) TruncateIntervals(id string, keep func(cell int) bool) error {
	t0 := time.Now()
	err := c.inner.TruncateIntervals(id, keep)
	c.record(kindDrop, id, t0, 0, err)
	return err
}

var reportPrefix = []byte(`{"kind":"report"`)

func (c *countStore) AppendTrace(id string, cell int, line []byte) error {
	t0 := time.Now()
	err := c.inner.AppendTrace(id, cell, line)
	if bytes.HasPrefix(line, reportPrefix) {
		c.reports.Add(1)
	}
	c.record(kindAppendTrace, id, t0, len(line), err)
	return err
}

func (c *countStore) Trace(id string, cell int) ([][]byte, error) {
	t0 := time.Now()
	lines, err := c.inner.Trace(id, cell)
	c.record(kindRead, id, t0, linesLen(lines), err)
	return lines, err
}

func (c *countStore) TruncateTrace(id string, keep func(cell int) bool) error {
	t0 := time.Now()
	err := c.inner.TruncateTrace(id, keep)
	c.record(kindDrop, id, t0, 0, err)
	return err
}

func (c *countStore) PutCell(id string, cr store.CellResult) error {
	t0 := time.Now()
	err := c.inner.PutCell(id, cr)
	c.record(kindPutCell, id, t0, len(cr.Result), err)
	return err
}

func (c *countStore) Cells(id string) ([]store.CellResult, error) {
	t0 := time.Now()
	cells, err := c.inner.Cells(id)
	n := 0
	for _, cr := range cells {
		n += len(cr.Result)
	}
	c.record(kindRead, id, t0, n, err)
	return cells, err
}

func (c *countStore) DropCells(id string) error {
	t0 := time.Now()
	err := c.inner.DropCells(id)
	c.record(kindDrop, id, t0, 0, err)
	return err
}

func (c *countStore) Claim(id, owner string, ttl time.Duration) (bool, error) {
	t0 := time.Now()
	ok, err := c.inner.Claim(id, owner, ttl)
	c.record(kindLease, id, t0, 0, err)
	return ok, err
}

func (c *countStore) Release(id, owner string) error {
	t0 := time.Now()
	err := c.inner.Release(id, owner)
	c.record(kindLease, id, t0, 0, err)
	return err
}

func (c *countStore) Close() error {
	t0 := time.Now()
	err := c.inner.Close()
	c.record(kindClose, "", t0, 0, err)
	return err
}
