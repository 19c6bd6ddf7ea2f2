package engine

import (
	"context"
	"fmt"
	"sync/atomic"

	"ealb/internal/cluster"
	"ealb/internal/policy"
	"ealb/internal/trace"
	"ealb/internal/workload"
)

// MaxScenarioJobs bounds the total number of simulation jobs one sweep
// request may expand into (cells × per-cell jobs: a baseline comparison
// doubles a cluster cell, a policy cell runs the whole §3 line-up). The
// service executes arbitrary network requests, so one request must not
// buy an unbounded cross-product.
const MaxScenarioJobs = 4096

// SweepSpec is the v2 scenario request: every sweep axis of the paper's
// §5 panels may be a list, and the engine expands the cross-product into
// individual Scenario cells. The embedded Scenario carries the scalar
// form of each field, so a v1 single-run JSON body decodes unchanged — a
// scalar is simply a one-element axis. Giving both the scalar and the
// list form of the same axis is an error.
//
// Cluster axes: Seeds, Sizes, Bands, Sleeps, MTBFs, MTTRs. Farm axes:
// the cluster axes (sizing each member cluster) plus ClusterCounts and
// Dispatches. Policy axes: Seeds, Profiles, ServerCounts. Cells expand
// in deterministic order — the rightmost axis varies fastest: sizes →
// bands → sleeps → mtbfs → mttrs → seeds → replications for cluster
// sweeps, with cluster counts → dispatches inserted before seeds for
// farm sweeps, and profiles → server counts → seeds → replications for
// policy sweeps — and every cell records its fully normalized Scenario,
// so any cell can be re-run individually with a bit-identical result.
//
//ealb:digest
type SweepSpec struct {
	Scenario

	// Seeds is the seed axis. Replication r of seed s runs with seed
	// s + r, so `"seeds": [1], "replications": 3` sweeps seeds 1, 2, 3.
	Seeds []uint64 `json:"seeds,omitempty"`

	// Cluster axes (shared with farm sweeps, which size each member
	// cluster with them).
	Sizes  []int    `json:"sizes,omitempty"`
	Bands  []string `json:"bands,omitempty"`
	Sleeps []string `json:"sleeps,omitempty"`

	// Churn axes (cluster and farm sweeps), in seconds — the
	// availability-under-failure panels sweep these. Entries of 0
	// disable churn for that cell.
	MTBFs []float64 `json:"mtbfs,omitempty"`
	MTTRs []float64 `json:"mttrs,omitempty"`

	// Farm axes.
	ClusterCounts []int    `json:"cluster_counts,omitempty"`
	Dispatches    []string `json:"dispatches,omitempty"`

	// Policy axes.
	Profiles     []string `json:"profiles,omitempty"`
	ServerCounts []int    `json:"server_counts,omitempty"`

	// Replications runs every seed-axis entry Replications times with
	// consecutive derived seeds (default 1). Aggregates are computed per
	// parameter combination across its seeds × replications.
	Replications int `json:"replications,omitempty"`
}

// SingleRun reports whether the spec is a plain v1 single-scenario
// request: no list axis and no replication fan-out.
func (sp SweepSpec) SingleRun() bool {
	return len(sp.Seeds) == 0 && len(sp.Sizes) == 0 && len(sp.Bands) == 0 &&
		len(sp.Sleeps) == 0 && len(sp.MTBFs) == 0 && len(sp.MTTRs) == 0 &&
		len(sp.ClusterCounts) == 0 && len(sp.Dispatches) == 0 &&
		len(sp.Profiles) == 0 && len(sp.ServerCounts) == 0 &&
		sp.Replications <= 1
}

// axisConflicts rejects specs that give both the scalar and the list
// form of one axis — the request would be ambiguous.
func (sp SweepSpec) axisConflicts() error {
	type conflict struct {
		scalar, list string
		both         bool
	}
	for _, c := range []conflict{
		{"seed", "seeds", sp.Scenario.Seed != nil && len(sp.Seeds) > 0},
		{"size", "sizes", sp.Scenario.Size != 0 && len(sp.Sizes) > 0},
		{"band", "bands", sp.Scenario.Band != "" && len(sp.Bands) > 0},
		{"sleep", "sleeps", sp.Scenario.Sleep != "" && len(sp.Sleeps) > 0},
		{"mtbf", "mtbfs", sp.Scenario.MTBF != nil && len(sp.MTBFs) > 0},
		{"mttr", "mttrs", sp.Scenario.MTTR != nil && len(sp.MTTRs) > 0},
		{"clusters", "cluster_counts", sp.Scenario.Clusters != 0 && len(sp.ClusterCounts) > 0},
		{"dispatch", "dispatches", sp.Scenario.Dispatch != "" && len(sp.Dispatches) > 0},
		{"profile", "profiles", sp.Scenario.Profile != "" && len(sp.Profiles) > 0},
		{"servers", "server_counts", sp.Scenario.Servers != 0 && len(sp.ServerCounts) > 0},
	} {
		if c.both {
			return fmt.Errorf("engine: sweep gives both %q and %q; use one", c.scalar, c.list)
		}
	}
	return nil
}

// ExpandedSweep is a validated sweep: the normalized spec plus its
// cross-product cells in deterministic order. Produced by
// SweepSpec.Expand and executed with (*Pool).RunExpandedHooked; the
// fields are unexported so the cells always match the spec.
type ExpandedSweep struct {
	spec  SweepSpec
	cells []Scenario
}

// Spec returns the normalized spec.
func (e ExpandedSweep) Spec() SweepSpec { return e.spec }

// Cells returns the expansion cells in order. The slice is shared;
// callers must not mutate it.
func (e ExpandedSweep) Cells() []Scenario { return e.cells }

// Expand validates the spec and expands its cross-product. Every cell
// is normalized and validated, and the total job count is capped by
// MaxScenarioJobs — checked arithmetically before anything is
// materialized, so a tiny request body cannot buy an enormous
// expansion.
func (sp SweepSpec) Expand() (ExpandedSweep, error) {
	fail := func(err error) (ExpandedSweep, error) { return ExpandedSweep{}, err }
	if err := sp.axisConflicts(); err != nil {
		return fail(err)
	}
	if sp.Kind == "" {
		sp.Kind = KindCluster
	}
	if sp.Replications == 0 {
		sp.Replications = 1
	}
	if sp.Replications < 0 {
		return fail(fmt.Errorf("engine: negative replications %d", sp.Replications))
	}

	// Promote scalars into one-element axes, rejecting axis lists that
	// do not belong to the scenario kind — silently dropping an explicit
	// axis would execute something the client did not ask for. An absent
	// cluster/policy scalar stays absent here and picks up its default
	// per cell via Scenario.Normalized, so a v1 body expands to exactly
	// its v1 cell.
	if len(sp.Seeds) == 0 {
		sp.Seeds = []uint64{sp.SeedValue()}
	}
	sp.Scenario.Seed = nil
	perCellJobs := 1
	switch sp.Kind {
	case KindCluster, KindFarm:
		if len(sp.Profiles) > 0 || len(sp.ServerCounts) > 0 {
			return fail(fmt.Errorf(`engine: "profiles"/"server_counts" are policy axes; this is a %q sweep`, sp.Kind))
		}
		if sp.Kind == KindCluster && (len(sp.ClusterCounts) > 0 || len(sp.Dispatches) > 0) {
			return fail(fmt.Errorf(`engine: "cluster_counts"/"dispatches" are farm axes; this is a %q sweep`, sp.Kind))
		}
		if len(sp.Sizes) == 0 {
			sp.Sizes = []int{sp.Scenario.Size}
		}
		if len(sp.Bands) == 0 {
			sp.Bands = []string{sp.Scenario.Band}
		}
		if len(sp.Sleeps) == 0 {
			sp.Sleeps = []string{sp.Scenario.Sleep}
		}
		sp.Scenario.Size = 0
		sp.Scenario.Band = ""
		sp.Scenario.Sleep = ""
		if sp.Kind == KindFarm {
			if len(sp.ClusterCounts) == 0 {
				sp.ClusterCounts = []int{sp.Scenario.Clusters}
			}
			if len(sp.Dispatches) == 0 {
				sp.Dispatches = []string{sp.Scenario.Dispatch}
			}
			sp.Scenario.Clusters = 0
			sp.Scenario.Dispatch = ""
		}
		if sp.CompareBaseline {
			// Farm cells reject the flag per cell in Validate.
			perCellJobs = 2
		}
	case KindPolicy:
		if len(sp.Sizes) > 0 || len(sp.Bands) > 0 || len(sp.Sleeps) > 0 || len(sp.MTBFs) > 0 || len(sp.MTTRs) > 0 {
			return fail(fmt.Errorf(`engine: "sizes"/"bands"/"sleeps"/"mtbfs"/"mttrs" are cluster axes; this is a %q sweep`, sp.Kind))
		}
		if len(sp.ClusterCounts) > 0 || len(sp.Dispatches) > 0 {
			return fail(fmt.Errorf(`engine: "cluster_counts"/"dispatches" are farm axes; this is a %q sweep`, sp.Kind))
		}
		if len(sp.Profiles) == 0 {
			sp.Profiles = []string{sp.Scenario.Profile}
		}
		if len(sp.ServerCounts) == 0 {
			sp.ServerCounts = []int{sp.Scenario.Servers}
		}
		sp.Scenario.Profile = ""
		sp.Scenario.Servers = 0
		perCellJobs = len(policy.StandardSet(0, nil))
	default:
		return fail(fmt.Errorf("engine: unknown scenario kind %q (want %q, %q or %q)", sp.Kind, KindCluster, KindPolicy, KindFarm))
	}

	// The job budget, checked by division before each multiplication so
	// an attacker-sized factor (e.g. replications near MaxInt64) cannot
	// overflow the product past the comparison.
	jobs := perCellJobs
	for _, factor := range []int{
		len(sp.Seeds), len(sp.Sizes), len(sp.Bands), len(sp.Sleeps),
		len(sp.MTBFs), len(sp.MTTRs),
		len(sp.ClusterCounts), len(sp.Dispatches),
		len(sp.Profiles), len(sp.ServerCounts), sp.Replications,
	} {
		if factor == 0 {
			continue
		}
		if factor > MaxScenarioJobs/jobs {
			return fail(fmt.Errorf("engine: sweep expands to more than %d jobs", MaxScenarioJobs))
		}
		jobs *= factor
	}

	// The churn axes expand like the others but keep "absent" absent: an
	// explicit list iterates its entries, while a missing list is a
	// single-cell axis carrying the scalar (possibly nil, i.e. churn
	// disabled) — so a pre-churn request body expands to exactly its
	// historical cells, recorded scenarios included.
	mtbfAxis := churnAxis(sp.Scenario.MTBF, sp.MTBFs)
	mttrAxis := churnAxis(sp.Scenario.MTTR, sp.MTTRs)

	var cells []Scenario
	addCell := func(c Scenario) error {
		for rep := 0; rep < sp.Replications; rep++ {
			cell := c
			cell.Seed = SeedOf(*c.Seed + uint64(rep))
			cell = cell.Normalized()
			if err := cell.Validate(); err != nil {
				return fmt.Errorf("engine: sweep cell %d: %w", len(cells), err)
			}
			cells = append(cells, cell)
		}
		return nil
	}
	switch sp.Kind {
	case KindCluster:
		for _, size := range sp.Sizes {
			for _, band := range sp.Bands {
				for _, sleep := range sp.Sleeps {
					for _, mtbf := range mtbfAxis {
						for _, mttr := range mttrAxis {
							for _, seed := range sp.Seeds {
								cell := sp.Scenario
								cell.Size, cell.Band, cell.Sleep = size, band, sleep
								cell.MTBF, cell.MTTR = copyRate(mtbf), copyRate(mttr)
								cell.Seed = SeedOf(seed)
								if err := addCell(cell); err != nil {
									return fail(err)
								}
							}
						}
					}
				}
			}
		}
	case KindFarm:
		for _, size := range sp.Sizes {
			for _, band := range sp.Bands {
				for _, sleep := range sp.Sleeps {
					for _, mtbf := range mtbfAxis {
						for _, mttr := range mttrAxis {
							for _, clusters := range sp.ClusterCounts {
								for _, dispatch := range sp.Dispatches {
									for _, seed := range sp.Seeds {
										cell := sp.Scenario
										cell.Size, cell.Band, cell.Sleep = size, band, sleep
										cell.MTBF, cell.MTTR = copyRate(mtbf), copyRate(mttr)
										cell.Clusters, cell.Dispatch = clusters, dispatch
										cell.Seed = SeedOf(seed)
										if err := addCell(cell); err != nil {
											return fail(err)
										}
									}
								}
							}
						}
					}
				}
			}
		}
	case KindPolicy:
		for _, profile := range sp.Profiles {
			for _, servers := range sp.ServerCounts {
				for _, seed := range sp.Seeds {
					cell := sp.Scenario
					cell.Profile, cell.Servers = profile, servers
					cell.Seed = SeedOf(seed)
					if err := addCell(cell); err != nil {
						return fail(err)
					}
				}
			}
		}
	}
	return ExpandedSweep{spec: sp, cells: cells}, nil
}

// churnAxis returns the mtbf/mttr expansion axis: the explicit list, or
// the scalar — possibly nil, meaning absent — as a single-cell axis.
func churnAxis(scalar *float64, list []float64) []*float64 {
	if len(list) == 0 {
		return []*float64{scalar}
	}
	out := make([]*float64, len(list))
	for i := range list {
		out[i] = &list[i]
	}
	return out
}

// copyRate clones an optional rate so cells never alias the spec's axis
// storage.
func copyRate(p *float64) *float64 {
	if p == nil {
		return nil
	}
	return RateOf(*p)
}

// SweepResult is the outcome of a sweep: the normalized spec, every
// cell's result in expansion order, and per-parameter-combination
// aggregate statistics.
//
//ealb:digest
type SweepResult struct {
	Spec       SweepSpec   `json:"spec"`
	Cells      []Result    `json:"cells"`
	Aggregates []Aggregate `json:"aggregates"`
}

// RunSweep expands, validates and executes a sweep spec on the pool,
// blocking until every cell completes. Cell results are bit-identical to
// running each cell individually with RunScenario: every cell derives
// its own random streams from its seed and lands in an order-preserving
// slot. Cancelling the context stops running simulations at their next
// interval and fails unstarted cells promptly.
func (p *Pool) RunSweep(ctx context.Context, spec SweepSpec) (SweepResult, error) {
	ex, err := spec.Expand()
	if err != nil {
		return SweepResult{}, err
	}
	return p.RunExpandedHooked(ctx, ex, RunHooks{})
}

// RunHooks customizes RunExpandedHooked. All cell indices refer to the
// expansion order of the full sweep, even when Completed skips cells.
type RunHooks struct {
	// Observe, when non-nil, receives every completed interval of every
	// cluster or farm cell while the sweep runs — a cluster.IntervalStats
	// or farm.IntervalStats value, matching the sweep kind. It is called
	// from worker goroutines and must be safe for concurrent use.
	// Baseline comparison runs are not observed.
	Observe func(cell int, st any)
	// TracerFor, when non-nil, is consulted once per cluster or farm cell
	// and may return a per-cell tracer — nil to leave that cell untraced
	// — which receives the cell's decision events and phase timings while
	// it runs. Like Observe, returned tracers are driven from worker
	// goroutines and must be safe for concurrent use. Tracing is strictly
	// observational: traced results are byte-identical to untraced ones
	// (the engine's trace invariance tests pin this against the golden
	// digests). Policy cells and baseline-comparison runs are never
	// traced.
	TracerFor func(cell int) trace.Tracer
	// CellDone, when non-nil, is called once per executed cell as soon as
	// the cell's Result is fully assembled — for cluster cells with a
	// baseline comparison, after both runs finish. It is called from the
	// worker goroutine that completed the cell's last job, so it must be
	// safe for concurrent use; completion order across cells is
	// nondeterministic (the Result values themselves are not). Cells
	// satisfied from Completed do not fire it.
	CellDone func(cell int, res Result)
	// Completed supplies checkpointed results by expansion index. Those
	// cells are not re-executed: their results are merged verbatim into
	// the SweepResult, and only the remaining cells run. Because every
	// cell derives all randomness from its own recorded seed, the merged
	// result is byte-identical to an uninterrupted run — the basis of the
	// service's crash/resume support.
	Completed map[int]Result
}

// RunExpandedHooked executes an already-expanded sweep — callers that
// expanded the spec for validation (the HTTP service does, on submit)
// need not pay for a second expansion — with optional live hooks and
// resumption from checkpointed cells.
//
// Cluster cells flatten into one pool-level job list (nesting Map calls
// would deadlock a saturated pool); policy cells flatten into one job
// per (cell, policy) pair; farm cells run one after another, each
// fanning its clusters out across the pool per interval. Cells found in
// h.Completed are skipped: the remaining cells run as a compact
// sub-sweep whose hooks are remapped back to original expansion indices,
// and the checkpointed results merge in before aggregation (a pure
// function of the full cell slice, so a resumed sweep aggregates
// identically).
func (p *Pool) RunExpandedHooked(ctx context.Context, ex ExpandedSweep, h RunHooks) (SweepResult, error) {
	spec, cells := ex.spec, ex.cells
	full := make([]Result, len(cells))
	pending := cells
	pendingResults := full
	var pmap []int // compact index → expansion index; nil means identity
	if len(h.Completed) > 0 {
		pending = nil
		for ci := range cells {
			if res, ok := h.Completed[ci]; ok {
				full[ci] = res
				continue
			}
			pending = append(pending, cells[ci])
			pmap = append(pmap, ci)
		}
		pendingResults = make([]Result, len(pending))
		orig := h
		sub := RunHooks{}
		if orig.Observe != nil {
			sub.Observe = func(i int, st any) { orig.Observe(pmap[i], st) }
		}
		if orig.TracerFor != nil {
			sub.TracerFor = func(i int) trace.Tracer { return orig.TracerFor(pmap[i]) }
		}
		if orig.CellDone != nil {
			sub.CellDone = func(i int, res Result) { orig.CellDone(pmap[i], res) }
		}
		h = sub
	}
	var err error
	switch spec.Kind {
	case KindCluster:
		err = p.runClusterCells(ctx, pending, pendingResults, h)
	case KindFarm:
		err = p.runFarmCells(ctx, pending, pendingResults, h)
	case KindPolicy:
		err = p.runPolicyCells(ctx, pending, pendingResults, h)
	}
	if err != nil {
		return SweepResult{}, err
	}
	for i, ci := range pmap {
		full[ci] = pendingResults[i]
	}
	return SweepResult{Spec: spec, Cells: full, Aggregates: Aggregates(full)}, nil
}

func (p *Pool) runClusterCells(ctx context.Context, cells []Scenario, results []Result, h RunHooks) error {
	// One job per cell, plus one for its always-on baseline when the
	// cell compares against it. The baseline inherits the cell's churn
	// so the savings comparison stays apples-to-apples under failures.
	type job struct {
		cell     int
		baseline bool
		band     workload.Band
		sleep    cluster.SleepPolicy
		tracer   trace.Tracer
	}
	var jobs []job
	for ci, cell := range cells {
		band, err := ParseBand(cell.Band)
		if err != nil {
			return err
		}
		sleep, err := ParseSleepPolicy(cell.Sleep)
		if err != nil {
			return err
		}
		main := job{cell: ci, band: band, sleep: sleep}
		if h.TracerFor != nil {
			main.tracer = h.TracerFor(ci)
		}
		jobs = append(jobs, main)
		if cell.CompareBaseline {
			jobs = append(jobs, job{cell: ci, baseline: true, band: band, sleep: cluster.SleepNever})
		}
	}
	// A cell completes when its last job does — two jobs with a baseline
	// comparison, one otherwise. The worker that decrements a cell's
	// counter to zero assembles the cell's Result and fires CellDone; the
	// atomic decrement orders it after the other job's runs[] write.
	mainJob := make([]int, len(cells))
	baseJob := make([]int, len(cells))
	remaining := make([]atomic.Int32, len(cells))
	for ci := range cells {
		baseJob[ci] = -1
	}
	for ji, j := range jobs {
		if j.baseline {
			baseJob[j.cell] = ji
		} else {
			mainJob[j.cell] = ji
		}
		remaining[j.cell].Add(1)
	}
	runs := make([]ClusterRun, len(jobs))
	return p.Map(ctx, len(jobs), func(ji int) error {
		j := jobs[ji]
		ci := j.cell
		cell := &cells[ci]
		mutate := func(c *cluster.Config) {
			c.Sleep = j.sleep
			cell.applyChurn(c)
			if j.baseline {
				return
			}
			if h.Observe != nil {
				c.OnInterval = func(st cluster.IntervalStats) { h.Observe(ci, st) }
			}
			c.Tracer = j.tracer
		}
		run, err := p.runClusterArena(ctx, cell.Size, j.band, cell.SeedValue(), cell.Intervals, mutate)
		if err != nil {
			return fmt.Errorf("engine: sweep job %d (size=%d band=%v seed=%d): %w",
				ji, cell.Size, j.band, cell.SeedValue(), err)
		}
		runs[ji] = run
		p.addJoules(run.Energy)
		p.addIntervals(uint64(len(run.Stats)))
		p.addResilience(run.Failures, run.AppsLost)
		if remaining[ci].Add(-1) != 0 {
			return nil
		}
		res := &results[ci]
		main := runs[mainJob[ci]]
		res.Kind = cell.Kind
		res.Scenario = *cell
		res.Cluster = &main
		if baseJob[ci] >= 0 {
			res.AlwaysOnJoules = runs[baseJob[ci]].Energy
			res.JoulesSaved = res.AlwaysOnJoules - main.Energy
			p.addSaved(res.JoulesSaved)
		}
		if h.CellDone != nil {
			h.CellDone(ci, *res)
		}
		return nil
	})
}

func (p *Pool) runPolicyCells(ctx context.Context, cells []Scenario, results []Result, h RunHooks) error {
	type job struct {
		cell, pi int
	}
	var jobs []job
	pols := make([][]policy.Policy, len(cells))
	cfgs := make([]policy.FarmConfig, len(cells))
	rates := make([]workload.RateFunc, len(cells))
	for ci, cell := range cells {
		cfg := cell.farmConfig()
		rate, err := workload.Profile(cell.Profile, cell.BaseRate, cell.PeakRate, cfg.Horizon)
		if err != nil {
			return err
		}
		cfgs[ci], rates[ci] = cfg, rate
		pols[ci] = policy.StandardSetFor(cfg, rate)
		results[ci] = Result{Kind: cell.Kind, Scenario: cell, Policies: make([]policy.Result, len(pols[ci]))}
		for pi := range pols[ci] {
			jobs = append(jobs, job{cell: ci, pi: pi})
		}
	}
	remaining := make([]atomic.Int32, len(cells))
	for _, j := range jobs {
		remaining[j.cell].Add(1)
	}
	return p.Map(ctx, len(jobs), func(i int) error {
		j := jobs[i]
		r, err := policy.Simulate(ctx, cfgs[j.cell], pols[j.cell][j.pi], rates[j.cell])
		if err != nil {
			return fmt.Errorf("engine: sweep cell %d policy %q: %w", j.cell, pols[j.cell][j.pi].Name(), err)
		}
		results[j.cell].Policies[j.pi] = r
		p.addJoules(float64(r.Energy))
		if remaining[j.cell].Add(-1) == 0 && h.CellDone != nil {
			h.CellDone(j.cell, results[j.cell])
		}
		return nil
	})
}
