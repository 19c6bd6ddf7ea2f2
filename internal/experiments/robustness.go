package experiments

import (
	"fmt"
	"io"

	"ealb/internal/engine"
	"ealb/internal/metrics"
	"ealb/internal/report"
	"ealb/internal/workload"
)

// Robustness re-runs one (size, band) configuration across several seeds
// and aggregates the ratio trace — verifying that the shapes reported in
// EXPERIMENTS.md (crossover position, late-run levels, sleep counts) are
// properties of the protocol, not of one random stream. The paper reports
// single runs; this is an extension.
type Robustness struct {
	Size      int
	Band      workload.Band
	Seeds     []uint64
	Agg       metrics.Aggregate
	Crossover []int // per-seed crossover intervals
	Sleeping  []int // per-seed final sleep counts
}

// RunRobustness executes the sweep.
func RunRobustness(size int, band workload.Band, seeds []uint64, intervals int) (Robustness, error) {
	return RunRobustnessOn(engine.NewPool(1), size, band, seeds, intervals)
}

// RunRobustnessOn executes the per-seed sweep through a worker pool; the
// seeds are independent random streams, so the aggregate is identical to
// the serial sweep.
func RunRobustnessOn(p *engine.Pool, size int, band workload.Band, seeds []uint64, intervals int) (Robustness, error) {
	if len(seeds) == 0 {
		return Robustness{}, fmt.Errorf("experiments: robustness needs at least one seed")
	}
	cells, err := sweepPanels(p, []int{size}, []workload.Band{band}, seeds, intervals, false)
	if err != nil {
		return Robustness{}, err
	}
	out := Robustness{Size: size, Band: band, Seeds: seeds}
	var runs []metrics.Series
	for _, r := range clusterRuns(cells) {
		runs = append(runs, metrics.FromRun(r.Stats))
		out.Crossover = append(out.Crossover, r.Crossover())
		out.Sleeping = append(out.Sleeping, r.Sleeping)
	}
	agg, err := metrics.AggregateSeries(runs)
	if err != nil {
		return Robustness{}, err
	}
	out.Agg = agg
	return out, nil
}

// Render writes the aggregated trace and the per-seed crossovers.
func (r Robustness) Render(w io.Writer) error {
	fmt.Fprintf(w, "Robustness — %d seeds, %d servers, %.0f%% average load\n",
		len(r.Seeds), r.Size, r.Band.Mean()*100)
	plot := report.NewLinePlot("  mean in-cluster/local ratio per interval (across seeds)", 10)
	plot.AddSeries(r.Agg.Mean)
	if err := plot.Render(w); err != nil {
		return err
	}
	t := report.NewTable("", "Seed", "Crossover interval", "Final sleeping")
	for i, s := range r.Seeds {
		if err := t.AddRow(
			fmt.Sprintf("%d", s),
			fmt.Sprintf("%d", r.Crossover[i]),
			fmt.Sprintf("%d", r.Sleeping[i]),
		); err != nil {
			return err
		}
	}
	return t.Render(w)
}

// WriteRatioCSV exports one cluster run's per-interval metrics for
// external plotting (matplotlib regeneration of Figure 3).
func WriteRatioCSV(w io.Writer, run ClusterRun) error {
	return metrics.FromRun(run.Stats).WriteCSV(w)
}

// robustnessRunner registers the experiment.
func robustnessRunner(w io.Writer, opt Options) error {
	seeds := []uint64{opt.Seed, opt.Seed + 1, opt.Seed + 2, opt.Seed + 3, opt.Seed + 4}
	size := smallest(opt.Sizes, 1000)
	pool := opt.pool()
	for _, band := range PaperBands {
		r, err := RunRobustnessOn(pool, size, band, seeds, opt.Intervals)
		if err != nil {
			return err
		}
		if err := r.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}
