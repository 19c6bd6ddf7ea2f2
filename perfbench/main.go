// Command perfbench is the repository's end-to-end benchmark of the
// ealb-serve request path. It starts the scenario service in-process
// (engine pool, run store, serve.NewWith, Recover, loopback listener),
// drives one workload as a closed loop for a fixed time, checks every
// output against a direct engine run, and prints the end-to-end metrics
// (-trace 0) or the per-layer breakdown from a traced run (-trace 1).
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	perfbench -workload sweep_mid -seed 1 -seconds 20 -trace 0
//
// See README.md in this directory for the workloads, the metrics and
// what each layer metric is expected to move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	flag.Uint64Var(&o.seed, "seed", 1, "seed every request body derives from")
	flag.IntVar(&o.seconds, "seconds", 20, "length of the measured window in seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced breakdown instead of the end-to-end metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for disk stores and trace output")
	flag.Parse()
	w, ok := lookupWorkload(o.workload)
	if !ok || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSet keeps metrics in insertion order for the text report.
type metricSet struct {
	names []string
	m     map[string]metric
}

func (s *metricSet) set(name, unit string, v float64) {
	if s.m == nil {
		s.m = make(map[string]metric)
	}
	if _, ok := s.m[name]; !ok {
		s.names = append(s.names, name)
	}
	s.m[name] = metric{Value: v, Unit: unit}
}

func (s *metricSet) print(note map[string]string) {
	for _, n := range s.names {
		m := s.m[n]
		fmt.Printf("  %-34s %14.6g %-6s %s\n", n, m.Value, m.Unit, note[n])
	}
}

// bench is one invocation: a workload, its seed and the op counter
// every body derives from.
type bench struct {
	w      workload
	o      options
	nextOp atomic.Int64
}

func (b *bench) next() int64 { return b.nextOp.Add(1) - 1 }

func run(w workload, o options) (result, error) {
	b := &bench{w: w, o: o}
	ctx := context.Background()
	tmp, err := filepath.Abs(filepath.Join(o.workdir, "tmp"))
	if err != nil {
		return result{}, err
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d clients=%d store=%s nproc=%d gomaxprocs=%d %s %s/%s\n",
		w.name, o.seed, o.seconds, o.trace, w.clients, storeName(w), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		runtime.Version(), runtime.GOOS, runtime.GOARCH)

	// Set-up: build the service from scratch and complete a first op,
	// several times; the last instance serves the measured window.
	var (
		setups []time.Duration
		all    []opResult
		inst   *instance
	)
	for k := 0; k < w.setups; k++ {
		t0 := time.Now()
		in, err := start(w, tmp)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		first := in.runOp(w, o.seed, b.next())
		setups = append(setups, first.end.Sub(t0))
		all = append(all, first)
		if k == w.setups-1 {
			inst = in
		} else if err := in.stop(); err != nil {
			return result{}, fmt.Errorf("tear-down: %w", err)
		}
	}
	defer inst.stop()

	window := time.Duration(o.seconds) * time.Second
	var plain, traced *windowStats
	var sink *spanSink
	if o.trace == 0 {
		plain, err = b.measure(inst, window)
	} else {
		// The traced run: an untraced half, then a half with span
		// recording on; their difference is the tracing overhead.
		if plain, err = b.measure(inst, window/2); err == nil {
			sink = &spanSink{}
			inst.store.sink.Store(sink)
			traced, err = b.measure(inst, window/2)
			inst.store.sink.Store(nil)
		}
	}
	if err != nil {
		return result{}, err
	}
	all = append(all, plain.ops...)
	if traced != nil {
		all = append(all, traced.ops...)
	}

	// Output checks, outside every timed window.
	chk := newChecker(w, inst.pool)
	failures, err := chk.check(ctx, all)
	if err != nil {
		return result{}, fmt.Errorf("output check: %w", err)
	}
	final, err := scrape(inst)
	if err != nil {
		return result{}, err
	}
	dropped := final[metricDropped]
	if dropped != 0 {
		failures = append(failures, fmt.Sprintf("the service dropped %v trace events past the per-cell cap", dropped))
	}
	failed := 0
	for i := range all {
		if !all[i].ok() {
			failed++
		}
	}
	res := result{Correct: len(failures) == 0, Attempted: len(all), Failed: failed}
	for _, f := range failures {
		fmt.Println("CHECK FAILED:", f)
	}

	e2e := b.endToEnd(chk, plain, setups)
	notes := map[string]string{
		"setup_s":  fmt.Sprintf("median of %d set-ups %v", len(setups), roundAll(setups)),
		"op_p50_s": fmt.Sprintf("n=%d ops in %.2fs", len(plain.ops), plain.wall.Seconds()),
		"op_p90_s": fmt.Sprintf("n=%d ops (%d beyond p90)", len(plain.ops), len(plain.ops)/10),
	}
	e2e.set("failed_frac", "ratio", float64(failed)/float64(len(all)))
	fmt.Println("end-to-end (tracing off):")
	e2e.print(notes)
	if o.trace == 0 {
		res.Metrics = e2e.m
		delete(res.Metrics, "failed_frac") // carried by attempted/failed
		return res, nil
	}

	overhead := b.endToEnd(chk, traced, setups)
	fmt.Printf("tracing_overhead workload=%s", w.name)
	for _, name := range e2e.names {
		if name == "setup_s" || name == "failed_frac" {
			continue
		}
		fmt.Printf(" %s=%+.1f%%", name, 100*(overhead.m[name].Value/e2e.m[name].Value-1))
	}
	fmt.Printf(" (traced half vs untraced half, %d vs %d ops)\n", len(traced.ops), len(plain.ops))

	layers, err := b.perLayer(ctx, chk, inst, traced, sink)
	if err != nil {
		return result{}, err
	}
	layers.set("failed_frac", "ratio", float64(failed)/float64(len(all)))
	res.Metrics = layers.m
	return res, nil
}

func storeName(w workload) string {
	if w.disk {
		return "disk"
	}
	return "memory"
}

// windowStats is one measured window: its ops and the deltas of every
// counter read around it.
type windowStats struct {
	ops          []opResult
	wall         time.Duration
	cpu          time.Duration
	pool0, pool1 poolCounters
	store        storeCounters
	gcCycles     uint32
	gcPause      time.Duration
	allocBytes   uint64
	heapBytes    uint64 // HeapAlloc after a GC at the end of the window
	prom         map[string]float64
}

// measure runs the closed loop for d and collects the window's deltas.
func (b *bench) measure(inst *instance, d time.Duration) (*windowStats, error) {
	m0, err := scrape(inst)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ws := &windowStats{pool0: poolSnapshot(inst.pool)}
	st0 := inst.store.snapshot()
	cpu0 := cpuTime()
	t0 := time.Now()
	ws.ops = inst.loop(b.w, b.o.seed, b.next, t0.Add(d))
	for _, r := range ws.ops {
		if e := r.end.Sub(t0); e > ws.wall {
			ws.wall = e
		}
	}
	ws.cpu = cpuTime() - cpu0
	ws.store = inst.store.snapshot().sub(st0)
	ws.pool1 = poolSnapshot(inst.pool)
	runtime.ReadMemStats(&ms1)
	ws.gcCycles = ms1.NumGC - ms0.NumGC
	ws.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	ws.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	// Two collections: the first only moves the engine's sync.Pool
	// arenas to the pool's victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	ws.heapBytes = ms1.HeapAlloc
	m1, err := scrape(inst)
	if err != nil {
		return nil, err
	}
	ws.prom = make(map[string]float64)
	for k, v := range m1 {
		ws.prom[k] = v - m0[k]
	}
	return ws, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (b *bench) endToEnd(chk *checker, ws *windowStats, setups []time.Duration) *metricSet {
	var s metricSet
	n := float64(len(ws.ops))
	lat := make([]float64, len(ws.ops))
	var work int64
	for i, r := range ws.ops {
		lat[i] = r.latency().Seconds()
		if e, ok := chk.expect[r.body]; ok && r.ok() {
			work += e.serverIntervals
		}
	}
	setupS := make([]float64, len(setups))
	for i, d := range setups {
		setupS[i] = d.Seconds()
	}
	s.set("setup_s", "s", quantile(setupS, 0.5))
	s.set("op_p50_s", "s", quantile(lat, 0.5))
	s.set("op_p90_s", "s", quantile(lat, 0.9))
	s.set("server_intervals_per_s", "1/s", float64(work)/ws.wall.Seconds())
	s.set("cpu_s_per_op", "s", ws.cpu.Seconds()/n)
	s.set("retained_heap_mb", "MB", float64(ws.heapBytes)/1e6)
	s.set("store_mb_per_op", "MB", float64(ws.store.writeBytes())/1e6/n)
	return &s
}

// quantile interpolates linearly between order statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(d []time.Duration) time.Duration {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x)
	}
	return time.Duration(quantile(v, 0.5))
}

func roundAll(d []time.Duration) []time.Duration {
	out := make([]time.Duration, len(d))
	for i, x := range d {
		out[i] = x.Round(time.Millisecond)
	}
	return out
}
