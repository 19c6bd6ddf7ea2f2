// Package engine executes simulation sweeps over a worker pool.
//
// The simulator itself is strictly sequential — a cluster run advances one
// reallocation interval at a time and owns its random stream — but the
// experiments of §5 are embarrassingly parallel across panels: every
// (size, band, seed) configuration is an independent simulation. The
// engine exploits that. Each job derives its own deterministic RNG state
// from the scenario seed, workers never share mutable simulation state,
// and results land in order-preserving slots, so a sweep executed on N
// workers is bit-identical to the same sweep executed serially.
//
// Three layers are exposed:
//
//   - Pool, a bounded worker pool with an order-preserving, context-aware
//     Map primitive and atomic job/energy counters (the engine's
//     observability surface, exported by ealb-serve's /metrics endpoint);
//   - Scenario/Result, a JSON-friendly description of one simulation
//     request (cluster protocol run or §3 policy-farm comparison)
//     executed with (*Pool).RunScenario;
//   - SweepSpec/SweepResult, the multi-axis generalization behind
//     `POST /v1/runs`: axis lists expand into a cross-product of
//     Scenario cells executed with (*Pool).RunSweep, which returns
//     per-cell results plus per-group aggregate statistics.
//
// Every entry point takes a context.Context; cancellation stops running
// simulations at their next preemption point and fails queued jobs
// promptly, which is what lets the HTTP service cancel and drain runs.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ealb/internal/trace"
)

// Pool is a bounded worker pool for simulation jobs. The zero value is not
// usable; construct one with NewPool. A Pool is safe for concurrent use
// and may be shared by the experiment runners and the HTTP service: the
// worker bound is pool-wide, so concurrent Map calls (e.g. many HTTP
// requests on one engine) together never run more than workers jobs at
// once — excess jobs wait, which is what the queue-depth gauge measures.
type Pool struct {
	workers int
	slots   chan struct{} // pool-wide concurrency semaphore

	jobsSubmitted atomic.Uint64
	jobsStarted   atomic.Uint64
	jobsCompleted atomic.Uint64
	jobsFailed    atomic.Uint64

	intervalsSimulated atomic.Uint64 // reallocation intervals completed by cluster jobs

	clusterFailures atomic.Uint64 // server failures injected by completed cluster/farm jobs
	clusterAppsLost atomic.Uint64 // applications lost to failures by completed cluster/farm jobs

	joules      atomicFloat // total simulated energy across completed jobs
	joulesSaved atomicFloat // simulated savings vs always-on baselines

	// queueWait and runDur are the pool's job-latency histograms: time
	// from submission (Map entry) to a slot, and time spent executing.
	// Both are log₂-bucketed and always on — two clock reads per job is
	// noise against a job that simulates at least one interval.
	queueWait trace.Hist
	runDur    trace.Hist

	// arenas recycles cluster simulations across jobs: a worker picking
	// up the next sweep cell rebuilds a pooled cluster in place instead
	// of reconstructing the whole object graph (cluster.Rebuild is
	// bit-identical to cluster.New, so reuse is invisible in results).
	// farms does the same for whole federated farms — each pooled farm
	// carries its member clusters' arenas with it.
	arenas sync.Pool
	farms  sync.Pool
}

// NewPool returns a pool running at most workers jobs concurrently.
// workers <= 0 selects one worker per available CPU.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, slots: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.workers }

// Stats is a point-in-time snapshot of the pool's counters. Jobs are
// individual simulations (a scenario with a baseline comparison spends
// two jobs).
type Stats struct {
	Workers       int
	JobsSubmitted uint64
	JobsStarted   uint64
	JobsCompleted uint64
	JobsFailed    uint64
	QueueDepth    uint64 // submitted but not yet started
	// IntervalsSimulated counts reallocation intervals completed by
	// cluster jobs — the engine's unit of simulation throughput (a rate
	// over it is intervals/second, the number the leader-state refactor
	// moves).
	IntervalsSimulated uint64
	// ClusterFailures counts server failures injected by completed
	// cluster and farm jobs (the churn process plus manual injection);
	// ClusterAppsLost counts applications those failures dropped because
	// no surviving server could take them.
	ClusterFailures uint64
	ClusterAppsLost uint64
	// SimulatedJoules is the total energy simulated by completed jobs.
	SimulatedJoules float64
	// JoulesSaved accumulates (always-on − energy-aware) energy from
	// scenarios that requested a baseline comparison.
	JoulesSaved float64
	// JobQueueWait and JobRunDuration are log₂ latency histograms over
	// every job the pool has executed: wall time from submission to a
	// worker slot, and wall time spent running. ealb-serve exports both
	// as Prometheus histograms on /metrics.
	JobQueueWait   trace.HistSnapshot
	JobRunDuration trace.HistSnapshot
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	s := Stats{
		Workers:            p.workers,
		JobsSubmitted:      p.jobsSubmitted.Load(),
		JobsStarted:        p.jobsStarted.Load(),
		JobsCompleted:      p.jobsCompleted.Load(),
		JobsFailed:         p.jobsFailed.Load(),
		IntervalsSimulated: p.intervalsSimulated.Load(),
		ClusterFailures:    p.clusterFailures.Load(),
		ClusterAppsLost:    p.clusterAppsLost.Load(),
		SimulatedJoules:    p.joules.Load(),
		JoulesSaved:        p.joulesSaved.Load(),
		JobQueueWait:       p.queueWait.Snapshot(),
		JobRunDuration:     p.runDur.Snapshot(),
	}
	if s.JobsSubmitted > s.JobsStarted {
		s.QueueDepth = s.JobsSubmitted - s.JobsStarted
	}
	return s
}

// Map runs fn(0) … fn(n-1) across the pool and blocks until every call
// returns. Calls may execute concurrently and in any order, so fn must
// write its result into a caller-owned slot for its index; the engine's
// sweep helpers all follow that pattern, which is what makes parallel
// sweeps bit-identical to serial ones. Map returns the error of the
// lowest-indexed failing call, after all calls finish.
//
// The context bounds the whole call: once it is cancelled no further job
// starts (jobs not yet started fail with ctx.Err()), and fn is expected
// to observe the same context so already-running simulations stop at
// their next preemption point.
func (p *Pool) Map(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p.jobsSubmitted.Add(uint64(n))
	// Queue wait is measured from Map entry: a job's wait includes time
	// spent behind earlier jobs of the same call as well as other
	// callers holding the pool-wide slots.
	tSubmit := time.Now() //ealb:allow-nondet queue-wait metric; wall time never reaches simulation state
	if p.workers == 1 {
		// Inline fast path: no goroutines, but still through the
		// pool-wide slot so concurrent callers serialize.
		var first error
		for i := 0; i < n; i++ {
			p.slots <- struct{}{}
			p.jobsStarted.Add(1)
			start := time.Now() //ealb:allow-nondet job-duration metric; wall time never reaches simulation state
			p.queueWait.Observe(start.Sub(tSubmit))
			err := p.run(ctx, i, fn)
			p.runDur.Observe(time.Since(start)) //ealb:allow-nondet job-duration metric; observational only
			<-p.slots
			if err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	work := make(chan int)
	var wg sync.WaitGroup
	workers := p.workers
	if workers > n {
		workers = n
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				// The slot is the pool-wide bound; the per-call worker
				// goroutines only shape this call's fan-out.
				p.slots <- struct{}{}
				p.jobsStarted.Add(1)
				start := time.Now() //ealb:allow-nondet job-duration metric; wall time never reaches simulation state
				p.queueWait.Observe(start.Sub(tSubmit))
				errs[i] = p.run(ctx, i, fn)
				p.runDur.Observe(time.Since(start)) //ealb:allow-nondet job-duration metric; observational only
				<-p.slots
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run executes one job, converting panics into errors so a bad scenario
// cannot take down the pool (the HTTP service runs arbitrary requests).
// A job whose context was cancelled before it starts fails with ctx.Err()
// without running, so a cancelled sweep drains its queue promptly.
func (p *Pool) run(ctx context.Context, i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: job %d panicked: %v", i, r)
		}
		if err != nil {
			p.jobsFailed.Add(1)
		} else {
			p.jobsCompleted.Add(1)
		}
	}()
	if err := ctx.Err(); err != nil {
		return err
	}
	return fn(i)
}

// addJoules accounts simulated energy.
func (p *Pool) addJoules(j float64) { p.joules.Add(j) }

// addIntervals accounts completed reallocation intervals.
func (p *Pool) addIntervals(n uint64) { p.intervalsSimulated.Add(n) }

// addResilience accounts a completed job's failure and loss counts.
func (p *Pool) addResilience(failures, appsLost int) {
	p.clusterFailures.Add(uint64(failures))
	p.clusterAppsLost.Add(uint64(appsLost))
}

// addSaved accounts simulated savings versus an always-on baseline.
func (p *Pool) addSaved(j float64) {
	if j > 0 {
		p.joulesSaved.Add(j)
	}
}

// atomicFloat is a float64 accumulator safe for concurrent use.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) Add(delta float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}
