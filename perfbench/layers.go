package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ealb/internal/engine"
	"ealb/internal/trace"
)

// poolCounters is the part of engine.Pool.Stats the engine layer
// metrics difference across a window.
type poolCounters struct {
	workers            int
	started, failed    uint64
	runNS, queueWaitNS int64
}

func poolSnapshot(p *engine.Pool) poolCounters {
	st := p.Stats()
	return poolCounters{
		workers: st.Workers,
		started: st.JobsStarted, failed: st.JobsFailed,
		runNS: st.JobRunDuration.SumNS, queueWaitNS: st.JobQueueWait.SumNS,
	}
}

// Service metrics read from GET /metrics.
const (
	metricDropped    = "ealb_trace_events_dropped_total"
	metricApplySum   = `ealb_sim_phase_seconds_sum{phase="apply"}`
	metricApplyCount = `ealb_sim_phase_seconds_count{phase="apply"}`
)

// scrape reads the service's Prometheus exposition into sample → value.
func scrape(inst *instance) (map[string]float64, error) {
	resp, err := inst.client.Get(inst.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// perLayer runs the traced part of a --trace 1 run: direct engine runs
// for the serve overhead, Expand timing, and a replay of the traced
// window's cells through the cluster package with the benchmark's own
// tracer. It writes the spans file and self-time table and returns the
// per-layer metrics of the traced window.
func (b *bench) perLayer(ctx context.Context, chk *checker, inst *instance, tw *windowStats, sink *spanSink) (*metricSet, error) {
	spans := &spanSet{epoch: tw.ops[0].start}
	runOp, calls := spans.addOps(tw.ops)
	spans.addStore(tw.ops, sink.spans, runOp, calls)

	// Distinct bodies of the traced window's successful ops, in op
	// order, each with the first op that sent it.
	var bodies []string
	firstOp := make(map[string]int64)
	for _, r := range tw.ops {
		if _, ok := firstOp[r.body]; !ok && r.ok() {
			firstOp[r.body] = r.op
			bodies = append(bodies, r.body)
		}
	}
	if len(bodies) == 0 {
		return nil, fmt.Errorf("no op of the traced window succeeded")
	}

	// Direct RunExpandedHooked of the same specs, untraced and without
	// hooks: the engine's share of a POST.
	var direct []time.Duration
	for i := 0; i < max(3, min(len(bodies), 200)); i++ {
		e := chk.expect[bodies[i%len(bodies)]]
		t0 := time.Now()
		if _, err := inst.pool.RunExpandedHooked(ctx, e.ex, engine.RunHooks{}); err != nil {
			return nil, fmt.Errorf("direct run: %w", err)
		}
		direct = append(direct, time.Since(t0))
	}

	// Replay: Expand, then each cell through New/Rebuild/RunIntervals.
	var rs replayStats
	var expands []time.Duration
	for i, body := range bodies[:min(len(bodies), 16)] {
		op := firstOp[body]
		root := spans.add(span{name: "replay", op: op, parent: -1, start: time.Now()})
		e := chk.expect[body]
		spec, err := decodeSpec(body)
		if err != nil {
			return nil, err
		}
		for k := 0; k < 16; k++ {
			t0 := time.Now()
			_, err := spec.Expand()
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			if k == 0 {
				spans.add(span{name: "engine.expand", op: op, parent: root, start: t0, end: t1})
			}
			expands = append(expands, t1.Sub(t0))
		}
		for ci, sc := range e.ex.Cells() {
			if err := replayCell(ctx, sc, e.res.Cells[ci].Cluster.Stats, spans, op, root, &rs); err != nil {
				return nil, fmt.Errorf("replay body %d cell %d: %w", i, ci, err)
			}
		}
		spans.spans[root].end = time.Now()
	}

	ls := layerMetrics(tw, direct, expands, &rs)
	if err := b.writeTrace(spans, tw, ls); err != nil {
		return nil, err
	}
	return ls, nil
}

// layerMetrics computes every per-layer metric, per op unless its name
// says otherwise.
func layerMetrics(tw *windowStats, direct, expands []time.Duration, rs *replayStats) *metricSet {
	var s metricSet
	n := float64(len(tw.ops))
	var posts []time.Duration
	var readS, readB, non2xx float64
	for i := range tw.ops {
		r := &tw.ops[i]
		posts = append(posts, r.calls[0].end.Sub(r.calls[0].start))
		readS += r.readTime().Seconds()
		readB += float64(r.readBytes())
		non2xx += float64(r.non2xx)
	}
	s.set("serve.submit_overhead_s", "s", (median(posts) - median(direct)).Seconds())
	s.set("serve.read_s", "s", readS/n)
	s.set("serve.read_mb", "MB", readB/1e6/n)
	s.set("serve.non2xx", "count", non2xx/n)

	st := tw.store
	for _, k := range []storeKind{kindAppendInterval, kindAppendTrace, kindPutRun, kindPutCell, kindRead} {
		name := "store." + storeKindNames[k]
		s.set(name+".calls", "count", float64(st.calls[k])/n)
		s.set(name+".s", "s", float64(st.ns[k])/1e9/n)
		s.set(name+".mb", "MB", float64(st.bytes[k])/1e6/n)
	}
	s.set("store.lease.s", "s", float64(st.ns[kindLease])/1e9/n)
	s.set("store.drop.s", "s", float64(st.ns[kindDrop])/1e9/n)
	s.set("store.errors", "count", float64(st.errors)/n)

	p0, p1 := tw.pool0, tw.pool1
	runS := float64(p1.runNS-p0.runNS) / 1e9
	s.set("engine.jobs", "count", float64(p1.started-p0.started)/n)
	s.set("engine.jobs_failed", "count", float64(p1.failed-p0.failed)/n)
	s.set("engine.job_run_s", "s", runS/n)
	s.set("engine.queue_wait_s", "s", float64(p1.queueWaitNS-p0.queueWaitNS)/1e9/n)
	s.set("engine.utilization", "ratio", runS/(float64(p1.workers)*tw.wall.Seconds()))
	s.set("engine.expand_s", "s", median(expands).Seconds())

	iv := float64(rs.intervals)
	s.set("cluster.new_s", "s", median(rs.news).Seconds())
	s.set("cluster.rebuild_s", "s", median(rs.rebuilds).Seconds())
	for p := trace.Phase(0); p < trace.NumPhases; p++ {
		s.set("cluster."+p.String()+"_s", "s", rs.phase[p].Seconds()/iv)
	}
	s.set("cluster.other_s", "s", rs.other.Seconds()/iv)
	s.set("cluster.ns_per_server_interval", "ns", float64(rs.runTime.Nanoseconds())/float64(rs.serverIntervals))
	s.set("cluster.allocs_per_interval", "count", float64(rs.mallocs)/iv)
	s.set("cluster.bytes_per_interval", "B", float64(rs.bytes)/iv)

	dropped := tw.prom[metricDropped]
	appendTrace := float64(st.calls[kindAppendTrace])
	s.set("trace.events", "count", (appendTrace+dropped)/n)
	share := 0.0
	if appendTrace > 0 {
		share = float64(st.reports) / appendTrace
	}
	s.set("trace.report_share", "ratio", share)
	sink := 0.0
	if c := tw.prom[metricApplyCount]; c > 0 {
		sink = tw.prom[metricApplySum]/c - rs.phase[trace.PhaseApply].Seconds()/iv
	}
	s.set("trace.sink_in_apply_s", "s", sink)
	s.set("trace.dropped", "count", dropped)

	s.set("process.gc_cycles", "count", float64(tw.gcCycles)/n)
	s.set("process.gc_pause_s", "s", tw.gcPause.Seconds()/n)
	s.set("process.alloc_mb", "MB", float64(tw.allocBytes)/1e6/n)
	return &s
}

// writeTrace writes the spans file and the self-time table under
// <workdir>/traces/<workload>-seed<seed>/ and prints the table.
func (b *bench) writeTrace(spans *spanSet, tw *windowStats, ls *metricSet) error {
	dir := filepath.Join(b.o.workdir, "traces", fmt.Sprintf("%s-seed%d", b.w.name, b.o.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.tsv"))
	if err != nil {
		return err
	}
	if err := spans.writeTSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	var table bytes.Buffer
	writeSelfTime(&table, spans, len(tw.ops), ls)
	fmt.Print(table.String())
	fmt.Printf("spans: %d in %s\n", len(spans.spans), filepath.Join(dir, "spans.tsv"))
	return os.WriteFile(filepath.Join(dir, "selftime.txt"), table.Bytes(), 0o644)
}

// writeSelfTime prints self time per layer, then each per-layer time
// metric beside the same quantity taken from span self times.
func writeSelfTime(w io.Writer, spans *spanSet, ops int, ls *metricSet) {
	self := spans.selfTimes()
	byName, count := spans.selfByName(self)
	layers := map[string]time.Duration{}
	layerSpans := map[string]int{}
	var order []string
	for _, sp := range spans.spans {
		l := layerOf(sp.name)
		if layerSpans[l] == 0 {
			order = append(order, l)
		}
		layerSpans[l]++
	}
	for name, d := range byName {
		layers[layerOf(name)] += d
	}
	fmt.Fprintf(w, "self time by layer (traced window: %d ops; replay spans are outside it):\n", ops)
	fmt.Fprintf(w, "  %-10s %10s %14s %14s\n", "layer", "spans", "self_s", "self_s/op")
	for _, l := range order {
		fmt.Fprintf(w, "  %-10s %10d %14.6f %14.6f\n", l, layerSpans[l], layers[l].Seconds(), layers[l].Seconds()/float64(ops))
	}

	perOp := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += byName[n]
		}
		return d.Seconds() / float64(ops)
	}
	perSpan := func(name string) float64 {
		if count[name] == 0 {
			return 0
		}
		return byName[name].Seconds() / float64(count[name])
	}
	perInterval := func(name string) float64 {
		if count["cluster.interval"] == 0 {
			return 0
		}
		return byName[name].Seconds() / float64(count["cluster.interval"])
	}
	rows := []struct {
		metric string
		spans  float64
	}{
		{"serve.read_s", perOp(routeRun, routeIntervals, routeTrace)},
		{"store.append_interval.s", perOp("store.append_interval")},
		{"store.append_trace.s", perOp("store.append_trace")},
		{"store.put_run.s", perOp("store.put_run")},
		{"store.put_cell.s", perOp("store.put_cell")},
		{"store.read.s", perOp("store.read")},
		{"store.lease.s", perOp("store.lease")},
		{"store.drop.s", perOp("store.drop")},
		{"engine.expand_s", perSpan("engine.expand")},
		{"cluster.new_s", perSpan("cluster.new")},
		{"cluster.rebuild_s", perSpan("cluster.rebuild")},
		{"cluster.workload_s", perInterval("cluster.workload")},
		{"cluster.churn_s", perInterval("cluster.churn")},
		{"cluster.plan_s", perInterval("cluster.plan")},
		{"cluster.apply_s", perInterval("cluster.apply")},
		{"cluster.other_s", perInterval("cluster.interval")},
	}
	fmt.Fprintf(w, "per-layer time metrics (measured, and span self time):\n")
	fmt.Fprintf(w, "  %-26s %14s %14s\n", "metric", "measured", "self(spans)")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %14.6g %14.6g\n", r.metric, ls.m[r.metric].Value, r.spans)
	}
}
