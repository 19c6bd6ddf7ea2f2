package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/trace"
	"ealb/internal/units"
)

// clusterConfig rebuilds the cluster configuration the engine derives
// for a normalized cluster cell.
func clusterConfig(sc engine.Scenario) (cluster.Config, error) {
	band, err := engine.ParseBand(sc.Band)
	if err != nil {
		return cluster.Config{}, err
	}
	sleep, err := engine.ParseSleepPolicy(sc.Sleep)
	if err != nil {
		return cluster.Config{}, err
	}
	cfg := cluster.DefaultConfig(sc.Size, band, sc.SeedValue())
	cfg.Sleep = sleep
	if sc.MTBF != nil {
		cfg.MTBF = units.Seconds(*sc.MTBF)
	}
	if sc.MTTR != nil {
		cfg.MTTR = units.Seconds(*sc.MTTR)
	}
	return cfg, nil
}

// replayStats accumulates the cluster layer's figures over replayed
// cells.
type replayStats struct {
	news, rebuilds  []time.Duration
	phase           [trace.NumPhases]time.Duration
	other           time.Duration // interval time outside the four phases
	intervals       int64
	serverIntervals int64
	runTime         time.Duration // untraced RunIntervals wall time
	mallocs, bytes  uint64        // untraced RunIntervals allocations
}

// phaseTracer is the benchmark's own tracer for a replayed cell: it
// turns phase timings and interval boundaries into spans and drops
// events (the store decorator counts the service's). One cell replays
// on one goroutine, so it needs no locking.
type phaseTracer struct {
	spans   *spanSet
	op      int64
	parent  int
	stats   *replayStats
	last    time.Time // end of the previous interval
	pending []span
}

func (t *phaseTracer) Event(trace.Event) {}

func (t *phaseTracer) Phase(p trace.Phase, d time.Duration) {
	end := time.Now()
	t.stats.phase[p] += d
	t.pending = append(t.pending, span{name: phaseSpanNames[p], op: t.op, start: end.Add(-d), end: end})
}

// interval closes one cluster.interval span at the OnInterval call and
// parents the phases recorded since the previous one to it.
func (t *phaseTracer) interval(cluster.IntervalStats) {
	now := time.Now()
	id := t.spans.add(span{name: "cluster.interval", op: t.op, parent: t.parent, start: t.last, end: now})
	var inPhases time.Duration
	for _, p := range t.pending {
		p.parent = id
		t.spans.add(p)
		inPhases += p.end.Sub(p.start)
	}
	t.stats.other += now.Sub(t.last) - inPhases
	t.stats.intervals++
	t.pending = t.pending[:0]
	t.last = now
}

var phaseSpanNames = [trace.NumPhases]string{"cluster.workload", "cluster.churn", "cluster.plan", "cluster.apply"}

// replayCell replays one cluster cell outside the service: cluster.New
// and Rebuild timed, an untraced RunIntervals for time per server
// interval and allocation counts, then a traced RunIntervals for the
// phase split. The untraced run's stats must equal want.
func replayCell(ctx context.Context, sc engine.Scenario, want []cluster.IntervalStats, spans *spanSet, op int64, parent int, st *replayStats) error {
	cfg, err := clusterConfig(sc)
	if err != nil {
		return err
	}
	t0 := time.Now()
	c, err := cluster.New(cfg)
	t1 := time.Now()
	if err != nil {
		return err
	}
	spans.add(span{name: "cluster.new", op: op, parent: parent, start: t0, end: t1})
	st.news = append(st.news, t1.Sub(t0))

	rebuild := func(cfg cluster.Config) error {
		t0 := time.Now()
		err := c.Rebuild(cfg)
		t1 := time.Now()
		spans.add(span{name: "cluster.rebuild", op: op, parent: parent, start: t0, end: t1})
		st.rebuilds = append(st.rebuilds, t1.Sub(t0))
		return err
	}
	if err := rebuild(cfg); err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 = time.Now()
	got, err := c.RunIntervals(ctx, sc.Intervals)
	t1 = time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return err
	}
	spans.add(span{name: "cluster.run", op: op, parent: parent, start: t0, end: t1})
	st.runTime += t1.Sub(t0)
	st.mallocs += m1.Mallocs - m0.Mallocs
	st.bytes += m1.TotalAlloc - m0.TotalAlloc
	st.serverIntervals += int64(sc.Size) * int64(sc.Intervals)
	if err := sameStats(got, want); err != nil {
		return fmt.Errorf("replay of cell seed %d: %w", sc.SeedValue(), err)
	}

	tr := &phaseTracer{spans: spans, op: op, parent: parent, stats: st}
	traced := cfg
	traced.Tracer = tr
	traced.OnInterval = tr.interval
	if err := rebuild(traced); err != nil {
		return err
	}
	tr.last = time.Now()
	_, err = c.RunIntervals(ctx, sc.Intervals)
	return err
}

// sameStats reports whether two interval series encode identically.
func sameStats(got, want []cluster.IntervalStats) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("replayed per-interval stats differ from the engine's")
	}
	return nil
}
