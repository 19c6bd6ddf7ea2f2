package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"

	"ealb/internal/engine"
)

// expected is the reference output of one distinct request body,
// computed by a direct engine.Pool.RunSweep of the same spec.
type expected struct {
	ex        engine.ExpandedSweep
	res       engine.SweepResult
	cells     [32]byte // digest of json.Marshal of every cell, one per line
	intervals [32]byte // digest of cell 0's per-interval stats as NDJSON
	// serverIntervals is Σ servers × intervals over the body's jobs,
	// baseline comparison runs included.
	serverIntervals int64
}

// decodeSpec parses a request body the way the service does.
func decodeSpec(body string) (engine.SweepSpec, error) {
	var spec engine.SweepSpec
	dec := json.NewDecoder(bytes.NewReader([]byte(body)))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// expect runs body directly on pool and digests the result.
func expect(ctx context.Context, pool *engine.Pool, body string) (*expected, error) {
	spec, err := decodeSpec(body)
	if err != nil {
		return nil, err
	}
	ex, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	res, err := pool.RunSweep(ctx, spec)
	if err != nil {
		return nil, fmt.Errorf("direct run: %w", err)
	}
	e := &expected{ex: ex, res: res}
	h := sha256.New()
	for _, c := range res.Cells {
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		h.Write(append(raw, '\n'))
	}
	h.Sum(e.cells[:0])
	h.Reset()
	if cl := res.Cells[0].Cluster; cl != nil {
		for _, st := range cl.Stats {
			raw, err := json.Marshal(st)
			if err != nil {
				return nil, err
			}
			h.Write(append(raw, '\n'))
		}
	}
	h.Sum(e.intervals[:0])
	for _, c := range ex.Cells() {
		n := int64(c.Size) * int64(c.Intervals)
		if c.CompareBaseline {
			n *= 2
		}
		e.serverIntervals += n
	}
	return e, nil
}

// checker verifies ops against the direct reference of their body.
type checker struct {
	w      workload
	pool   *engine.Pool
	expect map[string]*expected
}

func newChecker(w workload, pool *engine.Pool) *checker {
	return &checker{w: w, pool: pool, expect: make(map[string]*expected)}
}

// reference returns (computing once) the expected output of body.
func (c *checker) reference(ctx context.Context, body string) (*expected, error) {
	if e, ok := c.expect[body]; ok {
		return e, nil
	}
	e, err := expect(ctx, c.pool, body)
	if err != nil {
		return nil, err
	}
	c.expect[body] = e
	return e, nil
}

// check verifies every op and returns the failed ones' descriptions.
// An op fails on a transport error, a non-2xx answer, a run that did
// not finish, or any output that differs from the direct run. Ops that
// share a body must also return the same trace stream.
func (c *checker) check(ctx context.Context, ops []opResult) ([]string, error) {
	var failures []string
	traces := make(map[string]opResult)
	for i := range ops {
		r := &ops[i]
		fail := func(format string, a ...any) {
			failures = append(failures, fmt.Sprintf("op %d (run %s): %s", r.op, r.runID, fmt.Sprintf(format, a...)))
		}
		if !r.ok() {
			fail("status %q, %d non-2xx, error %v", r.status, r.non2xx, r.err)
			continue
		}
		e, err := c.reference(ctx, r.body)
		if err != nil {
			return nil, err
		}
		if r.cells != e.cells {
			fail("POST result differs from a direct RunSweep of the same spec")
		}
		for _, k := range c.w.reads {
			switch k {
			case readRun:
				if r.getRun != e.cells {
					fail("GET /v1/runs/{id} result differs from a direct RunSweep")
				}
			case readIntervals:
				if r.intervals != e.intervals {
					fail("GET /intervals differs from the direct result's per-interval stats")
				}
			case readTrace:
				if r.traceLines == 0 {
					fail("GET /trace returned no events")
				}
				if first, ok := traces[r.body]; !ok {
					traces[r.body] = *r
				} else if first.trace != r.trace {
					fail("GET /trace differs from op %d with the same body", first.op)
				}
			}
		}
	}
	return failures, nil
}

// sortOps orders ops by index.
func sortOps(ops []opResult) {
	sort.Slice(ops, func(i, j int) bool { return ops[i].op < ops[j].op })
}
