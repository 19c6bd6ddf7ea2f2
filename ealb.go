// Package ealb is the public API of the energy-aware load balancing
// library, a from-scratch Go reproduction of Paya & Marinescu,
// "Energy-aware Load Balancing Policies for the Cloud Ecosystem"
// (arXiv:1401.2198, IPDPS workshops 2014).
//
// The library simulates a clustered cloud whose leader concentrates load
// on the smallest set of servers operating within an optimal energy
// regime and switches the rest to ACPI sleep states, subject to QoS
// constraints. Three layers are exposed:
//
//   - the cluster simulation (NewCluster / Cluster.RunIntervals), the
//     paper's §4-§5 protocol over heterogeneous servers with five
//     operating regimes R1-R5;
//   - the capacity-management policy farm (SimulatePolicy, StandardPolicies),
//     the §3 survey of reactive/predictive/optimal policies;
//   - the analytic homogeneous model (HomogeneousModel), §4's closed-form
//     E_ref/E_opt estimate;
//   - the simulation engine (NewEngine / Engine.RunScenario /
//     Engine.RunSweep), a worker pool that executes JSON-friendly
//     Scenario requests and multi-axis SweepSpec cross-products in
//     parallel with bit-identical-to-serial results, and the HTTP
//     scenario service built on it (NewScenarioHandler, cmd/ealb-serve);
//
// Every simulation entry point takes a context.Context and stops at its
// next preemption point (a reallocation interval, a decision slot, a
// queued job) when the context is cancelled, so services embedding the
// library can shed, cancel and drain work.
//
// plus the experiment runners (RunExperiment) that regenerate every table
// and figure of the paper. See DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-versus-measured results.
//
// Everything is deterministic: the same seed reproduces a simulation
// bit for bit, on any platform, using only the standard library —
// including sweeps dispatched across many engine workers.
package ealb

import (
	"context"
	"io"
	"net/http"

	"ealb/internal/analytic"
	"ealb/internal/cluster"
	"ealb/internal/engine"
	"ealb/internal/experiments"
	"ealb/internal/farm"
	"ealb/internal/policy"
	"ealb/internal/serve"
	"ealb/internal/trace"
	"ealb/internal/units"
	"ealb/internal/workload"
)

// Quantity types re-exported for configuration.
type (
	// Watts is instantaneous power.
	Watts = units.Watts
	// Joules is energy.
	Joules = units.Joules
	// Seconds is simulated time.
	Seconds = units.Seconds
	// Fraction is a normalized quantity in [0,1] (loads, regimes).
	Fraction = units.Fraction
)

// Cluster simulation (the paper's primary contribution).
type (
	// ClusterConfig parameterizes a cluster simulation; start from
	// DefaultClusterConfig.
	ClusterConfig = cluster.Config
	// Cluster is a simulated cluster with its leader protocol.
	Cluster = cluster.Cluster
	// IntervalStats summarizes one reallocation interval.
	IntervalStats = cluster.IntervalStats
	// SleepPolicy selects how consolidation chooses sleep states.
	SleepPolicy = cluster.SleepPolicy
	// Band is a uniform initial-load band.
	Band = workload.Band
)

// Sleep policies.
const (
	// SleepAuto applies the paper's 60% rule (§6).
	SleepAuto = cluster.SleepAuto
	// SleepC3Only always uses the shallow C3 state.
	SleepC3Only = cluster.SleepC3Only
	// SleepC6Only always uses the deep C6 state.
	SleepC6Only = cluster.SleepC6Only
	// SleepNever is the always-on baseline.
	SleepNever = cluster.SleepNever
)

// DefaultClusterConfig returns the §5 experiment parameterization for a
// cluster of the given size and initial load band.
func DefaultClusterConfig(size int, band Band, seed uint64) ClusterConfig {
	return cluster.DefaultConfig(size, band, seed)
}

// NewCluster builds and populates a cluster simulation.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// LowLoad returns the paper's 20-40% initial-load band.
func LowLoad() Band { return workload.LowLoad() }

// HighLoad returns the paper's 60-80% initial-load band.
func HighLoad() Band { return workload.HighLoad() }

// Federated farm simulation: a farm of independent clusters behind a
// front-end dispatcher routing newly arriving applications (§4's
// hierarchical cloud). Note this is distinct from FarmConfig, the §3
// capacity-management policy farm below.
type (
	// ClusterFarm is a federation of clusters with a front-end
	// dispatcher.
	ClusterFarm = farm.Farm
	// ClusterFarmConfig parameterizes a federated simulation; start from
	// DefaultClusterFarmConfig.
	ClusterFarmConfig = farm.Config
	// FarmIntervalStats summarizes one farm interval: per-cluster
	// statistics plus farm-level aggregates (total power, sleep counts,
	// overload fraction, dispatch counts).
	FarmIntervalStats = farm.IntervalStats
	// DispatchPolicy selects how the front-end routes new applications.
	DispatchPolicy = farm.DispatchPolicy
	// FarmRun is the raw outcome of a federated engine scenario.
	FarmRun = engine.FarmRun
)

// Dispatch policies.
const (
	// DispatchRoundRobin cycles through the clusters — the oblivious
	// baseline.
	DispatchRoundRobin = farm.DispatchRoundRobin
	// DispatchLeastLoaded routes to the cluster with the lowest mean
	// load.
	DispatchLeastLoaded = farm.DispatchLeastLoaded
	// DispatchEnergyHeadroom routes to the cluster whose awake servers
	// can absorb the most demand without waking anyone.
	DispatchEnergyHeadroom = farm.DispatchEnergyHeadroom
)

// DefaultClusterFarmConfig returns the §5 parameterization federated
// across clusters of size servers each, with the default open arrival
// workload.
func DefaultClusterFarmConfig(clusters, size int, band Band, seed uint64) ClusterFarmConfig {
	return farm.DefaultConfig(clusters, size, band, seed)
}

// NewClusterFarm builds and populates a federated farm simulation. Its
// RunIntervals accepts an *Engine as the runner to advance clusters in
// parallel (nil advances them serially; results are byte-identical).
func NewClusterFarm(cfg ClusterFarmConfig) (*ClusterFarm, error) { return farm.New(cfg) }

// ParseDispatchPolicy converts a dispatch policy name (see
// DispatchPolicyNames) into a DispatchPolicy.
func ParseDispatchPolicy(spec string) (DispatchPolicy, error) { return farm.ParseDispatch(spec) }

// DispatchPolicyNames lists the policies ParseDispatchPolicy accepts:
// round-robin, least-loaded and energy-headroom.
func DispatchPolicyNames() []string { return farm.DispatchPolicies() }

// Capacity-management policies (§3).
type (
	// Policy decides farm capacity for the next slot.
	Policy = policy.Policy
	// FarmConfig parameterizes the policy farm simulation.
	FarmConfig = policy.FarmConfig
	// PolicyResult summarizes one policy run.
	PolicyResult = policy.Result
	// RateFunc is a request-arrival rate profile.
	RateFunc = workload.RateFunc
)

// DefaultFarmConfig returns the standard policy-comparison farm.
func DefaultFarmConfig() FarmConfig { return policy.DefaultFarmConfig() }

// SimulatePolicy runs one capacity-management policy against a workload.
// Cancelling the context abandons the run at the next decision slot.
func SimulatePolicy(ctx context.Context, cfg FarmConfig, pol Policy, rate RateFunc) (PolicyResult, error) {
	return policy.Simulate(ctx, cfg, pol, rate)
}

// ComparePolicies runs several policies against the same workload.
func ComparePolicies(ctx context.Context, cfg FarmConfig, pols []Policy, rate RateFunc) ([]PolicyResult, error) {
	return policy.Compare(ctx, cfg, pols, rate)
}

// StandardPolicies returns the §3 policy line-up: reactive, reactive with
// extra capacity, autoscale, moving-window, linear-regression, and the
// optimal oracle (which needs the true rate function and setup time).
func StandardPolicies(setup Seconds, rate RateFunc) []Policy {
	return policy.StandardSet(setup, rate)
}

// StandardPoliciesFor is StandardPolicies with the oracle matched to the
// farm's service rate and response-time target, making it SLA-optimal
// (the paper's "optimal policy ... does not produce any SLA violations").
func StandardPoliciesFor(cfg FarmConfig, rate RateFunc) []Policy {
	return policy.StandardSetFor(cfg, rate)
}

// Workload profiles for the policy farm.
var (
	// ConstantRate is a flat arrival-rate profile.
	ConstantRate = workload.ConstantRate
	// DiurnalRate is a daily-cycle profile.
	DiurnalRate = workload.DiurnalRate
	// SpikeRate overlays a flash crowd on a base rate.
	SpikeRate = workload.SpikeRate
	// BurstRate overlays a spike train (repeated flash crowds) on a base
	// rate — the bursty profile whose recovery gaps defeat reactive
	// provisioning.
	BurstRate = workload.BurstRate
	// TrendRate grows linearly.
	TrendRate = workload.TrendRate
	// ComposeRates sums several profiles.
	ComposeRates = workload.Compose
)

// WorkloadProfile builds a named arrival-rate profile (see
// WorkloadProfileNames) scaled to the given horizon: the farm idles at
// base req/s and the profile adds up to peak req/s on top.
func WorkloadProfile(name string, base, peak float64, horizon Seconds) (RateFunc, error) {
	return workload.Profile(name, base, peak, horizon)
}

// WorkloadProfileNames lists the profiles WorkloadProfile accepts:
// constant, diurnal, trend, spike and burst.
func WorkloadProfileNames() []string { return workload.ProfileNames() }

// HomogeneousModel is the §4 analytic model (eqs. 6-13).
type HomogeneousModel = analytic.Model

// PaperExample returns the §4 worked example whose E_ref/E_opt is 2.25.
func PaperExample() HomogeneousModel { return analytic.PaperExample() }

// Experiment reproduction.
type (
	// ExperimentOptions tunes a reproduction run (seed, interval count,
	// cluster-size sweep).
	ExperimentOptions = experiments.Options
	// ClusterRun is the raw outcome of one (size, band) experiment.
	ClusterRun = experiments.ClusterRun
)

// DefaultExperimentOptions returns the paper's parameters (seed 2014,
// 40 intervals, sizes 10^2/10^3/10^4).
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// ExperimentNames lists the reproducible tables/figures/ablations.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one table or figure by name, writing the
// report to w. Valid names come from ExperimentNames.
func RunExperiment(name string, w io.Writer, opt ExperimentOptions) error {
	return experiments.Run(name, w, opt)
}

// RunAllExperiments regenerates every table and figure.
func RunAllExperiments(w io.Writer, opt ExperimentOptions) error {
	return experiments.RunAll(w, opt)
}

// RunClusterExperiment runs one (size, band) cluster simulation with the
// paper's defaults and returns the raw measurements.
func RunClusterExperiment(size int, band Band, seed uint64, intervals int) (ClusterRun, error) {
	return experiments.RunCluster(size, band, seed, intervals, nil)
}

// Decision tracing and phase timing. A Tracer attached to a
// ClusterConfig or ClusterFarmConfig receives every balance decision,
// admission, failure/repair and dispatch as a structured event plus
// per-interval phase timings. Tracing is strictly observational: it
// consumes no random numbers and changes no simulated output (runs are
// byte-identical with and without a tracer), and a nil Tracer costs a
// single branch per hook site.
type (
	// Tracer receives decision events and phase timings; implementations
	// must be safe for concurrent use and must not feed back into the
	// simulation.
	Tracer = trace.Tracer
	// TraceEvent is one structured decision event.
	TraceEvent = trace.Event
	// TraceEventKind discriminates decision events (report, move, wake,
	// sleep, admit, fail, repair, dispatch).
	TraceEventKind = trace.Kind
	// TraceRecorder aggregates phase-latency histograms and per-kind
	// event counts; its Summary renders ealb-sim's exit report.
	TraceRecorder = trace.Recorder
	// TraceWriter streams events and phase timings as NDJSON.
	TraceWriter = trace.Writer
)

// NewTraceRecorder returns an empty aggregating tracer.
func NewTraceRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewTraceWriter returns a tracer writing NDJSON to w; call Flush
// before closing w.
func NewTraceWriter(w io.Writer) *TraceWriter { return trace.NewWriter(w) }

// MultiTracer composes tracers: every event and timing goes to each
// non-nil tracer in order. All-nil input collapses to nil (tracing
// disabled).
func MultiTracer(ts ...Tracer) Tracer { return trace.Multi(ts...) }

// Simulation engine and scenario service.
type (
	// Engine is a worker pool executing simulation sweeps and scenarios.
	// Sweeps dispatched on an Engine are bit-identical to serial runs:
	// every job derives its own random streams from its seed and results
	// land in order-preserving slots.
	Engine = engine.Pool
	// EngineStats is a snapshot of an engine's job/energy counters.
	EngineStats = engine.Stats
	// Scenario is a JSON-friendly description of one simulation request:
	// a cluster protocol run or a policy-farm comparison driven by a
	// named workload profile. The zero value selects the paper's §5
	// defaults; a nil Seed means "use the default" while SeedOf(0) runs
	// seed 0.
	Scenario = engine.Scenario
	// ScenarioResult is the outcome of one executed scenario.
	ScenarioResult = engine.Result
	// SweepSpec is the multi-axis scenario request: any sweep axis
	// (seeds, sizes, bands, sleeps, profiles, server counts) may be a
	// list plus a replications count, and (*Engine).RunSweep expands the
	// cross-product. A scalar Scenario body is a one-element sweep.
	SweepSpec = engine.SweepSpec
	// SweepResult is a sweep's outcome: per-cell results in expansion
	// order plus per-parameter-combination aggregates.
	SweepResult = engine.SweepResult
	// SweepAggregate summarizes one parameter combination across its
	// seeds and replications (mean/min/max/stddev of energy, savings and
	// SLA violations).
	SweepAggregate = engine.Aggregate
)

// SeedOf returns a scenario seed holding v, distinguishing an explicit
// seed 0 from an absent field.
func SeedOf(v uint64) *uint64 { return engine.SeedOf(v) }

// Scenario kinds.
const (
	// ScenarioCluster runs the §4-§5 leader protocol on one cluster.
	ScenarioCluster = engine.KindCluster
	// ScenarioPolicy runs the §3 policy line-up on a server farm.
	ScenarioPolicy = engine.KindPolicy
	// ScenarioFarm runs the federated multi-cluster ecosystem behind a
	// front-end dispatcher.
	ScenarioFarm = engine.KindFarm
)

// NewEngine returns an engine running at most workers simulations
// concurrently; workers <= 0 selects one worker per available CPU.
func NewEngine(workers int) *Engine { return engine.NewPool(workers) }

// NewScenarioHandler returns the HTTP handler of the scenario service
// (the API served by cmd/ealb-serve) backed by the given engine, for
// embedding in a larger server.
func NewScenarioHandler(e *Engine) http.Handler { return serve.New(e).Handler() }
