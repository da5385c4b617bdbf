package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"

	"sosf/internal/core"
	"sosf/internal/metrics"
)

// Options scale the experiment harness.
type Options struct {
	// Runs is the number of independent repetitions per data point
	// (default 5; the paper uses 25, enabled by Full).
	Runs int
	// Seed is the base seed; run r of a driver uses Seed + r (and sweeps
	// fold their point index in).
	Seed int64
	// Full switches every driver to the paper's exact scales (25 600
	// nodes, 25 runs). Without it, drivers use laptop-friendly scales
	// that preserve every trend.
	Full bool
	// MaxRounds caps each run (default 150).
	MaxRounds int
	// RoundWorkers shards each simulation round across this many workers
	// (counter-based per-node RNG streams keep the results byte-identical
	// for every value; see sim.Engine.SetWorkers). 0 — the default — keeps
	// rounds serial: the harness already fans independent runs across
	// Parallelism goroutines, so intra-round workers pay off for single
	// large simulations, not for grids of small ones. Negative selects
	// GOMAXPROCS per round.
	RoundWorkers int
	// Parallelism bounds the worker pool that fans independent
	// (sweep point, run) simulations across goroutines. Every cell of the
	// grid owns its engine and derives its seed from (Seed, point, run)
	// exactly as in sequential mode, and drivers gather results into
	// index-addressed storage before aggregating in index order — so any
	// Parallelism value produces byte-identical figures and tables.
	// 0 (the default) means runtime.GOMAXPROCS(0); 1 runs the cells one
	// at a time in index order.
	Parallelism int
	// CheckpointDir, when set, makes the figure-sweep drivers write a
	// snapshot of every cell's final system state into the directory
	// (<driver>-<cell>-run<r>.sosnap). A sweep then doubles as a warm-state
	// factory: any configuration's converged state can be reloaded with
	// core.RestoreSystem (or `sosbench -resume`) and continued, branched
	// into new scenarios, or re-measured — without re-simulating the
	// convergence prefix.
	CheckpointDir string
}

func (o Options) withDefaults() Options {
	if o.Runs <= 0 {
		if o.Full {
			o.Runs = 25
		} else {
			o.Runs = 5
		}
	}
	if o.MaxRounds <= 0 {
		o.MaxRounds = 150
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o
}

// runGrid executes cell(point, run) for every pair of the
// [0, points) × [0, o.Runs) grid and returns the results addressed as
// out[point][run]. Cells are claimed in index order from a shared counter
// by a pool of Parallelism workers; because each cell is a fully
// independent simulation (own engine, own seed) and results land in their
// grid slot rather than a completion-ordered append, callers that fold
// out[...] in index order produce byte-identical output at any pool size.
// On error the pool drains without starting new cells and the error of the
// lowest-indexed failed cell is returned; a one-worker pool therefore
// stops at the first failing cell.
func runGrid[T any](o Options, points int, cell func(point, run int) (T, error)) ([][]T, error) {
	out := make([][]T, points)
	for p := range out {
		out[p] = make([]T, o.Runs)
	}
	total := points * o.Runs
	workers := o.Parallelism
	if workers > total {
		workers = total
	}
	workers = max(workers, 1)
	errs := make([]error, total)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || failed.Load() {
					return
				}
				p, r := i/o.Runs, i%o.Runs
				v, err := cell(p, r)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					return
				}
				out[p][r] = v
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runRuns is runGrid for single-point drivers: o.Runs independent
// repetitions of one configuration.
func runRuns[T any](o Options, cell func(run int) (T, error)) ([]T, error) {
	grid, err := runGrid(o, 1, func(_, run int) (T, error) { return cell(run) })
	if err != nil {
		return nil, err
	}
	return grid[0], nil
}

// Figure is one reproduced figure: titled series over a shared x-axis,
// with rendering hints and free-form notes.
type Figure struct {
	ID     string // "fig2", "fig4", "ablation-uo2", ...
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	Series []*metrics.Series
	Notes  []string
}

// Table renders the figure's series as an aligned text table.
func (f *Figure) Table() *metrics.Table {
	return metrics.SeriesTable(f.XLabel, f.Series...)
}

// TableResult is a table-shaped experiment output.
type TableResult struct {
	ID    string
	Title string
	Table *metrics.Table
	Notes []string
}

// Result bundles everything a driver produced.
type Result struct {
	Figures []*Figure
	Tables  []*TableResult
}

// RunResult captures one simulation run for the harness.
type RunResult struct {
	// Rounds executed.
	Rounds int
	// ConvergedAt maps each sub-procedure to the first round it reached
	// accuracy 1.0, or -1 if it never did.
	ConvergedAt map[core.Sub]int
	// Curves holds the per-round accuracy of each sub-procedure.
	Curves map[core.Sub][]float64
	// BaselinePerNode and OverheadPerNode are bytes per node per round
	// for the two bandwidth classes of Figure 4.
	BaselinePerNode []float64
	OverheadPerNode []float64
	// Final is the last measured metrics snapshot.
	Final core.Metrics
}

// RunOnce builds a system from cfg and runs it for at most maxRounds,
// stopping early (if stopWhenDone) once every sub-procedure converged.
// History and meter storage are pre-sized to the round budget, so the run
// itself appends without reallocating — repeated across a sweep grid, the
// growth-chain garbage the drivers used to shed is gone.
func RunOnce(cfg core.Config, maxRounds int, stopWhenDone bool) (*RunResult, error) {
	return RunOnceCheckpoint(cfg, maxRounds, stopWhenDone, "")
}

// RunOnceCheckpoint is RunOnce plus an optional checkpoint: when snapPath
// is non-empty, the cell's final system state is written there, ready for
// core.RestoreSystem / `sosbench -resume` warm starts.
func RunOnceCheckpoint(cfg core.Config, maxRounds int, stopWhenDone bool, snapPath string) (*RunResult, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	tracker := core.NewTracker(sys, stopWhenDone)
	tracker.Reserve(maxRounds)
	sys.Engine().Meter().Reserve(maxRounds)
	rounds, err := sys.Run(maxRounds)
	if err != nil {
		return nil, err
	}
	if snapPath != "" {
		// Temp-and-rename so an interrupted sweep never leaves a partial
		// checkpoint behind under the final name.
		f, err := os.CreateTemp(filepath.Dir(snapPath), filepath.Base(snapPath)+".tmp-*")
		if err != nil {
			return nil, err
		}
		if err := sys.Snapshot(f); err != nil {
			f.Close()
			os.Remove(f.Name())
			return nil, fmt.Errorf("checkpoint %s: %w", snapPath, err)
		}
		if err := f.Close(); err != nil {
			os.Remove(f.Name())
			return nil, err
		}
		if err := os.Rename(f.Name(), snapPath); err != nil {
			os.Remove(f.Name())
			return nil, err
		}
	}
	return collect(sys, tracker, rounds), nil
}

// checkpointPath names a sweep cell's checkpoint file, or "" when
// checkpointing is off.
func (o Options) checkpointPath(driver, cell string, run int) string {
	if o.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(o.CheckpointDir, fmt.Sprintf("%s-%s-run%d.sosnap", driver, cell, run))
}

// collect assembles a RunResult from a finished (or mid-flight) system.
func collect(sys *core.System, tracker *core.Tracker, rounds int) *RunResult {
	res := &RunResult{
		Rounds:      rounds,
		ConvergedAt: make(map[core.Sub]int, 5),
		Curves:      make(map[core.Sub][]float64, 5),
	}
	for _, sub := range core.Subs() {
		res.ConvergedAt[sub] = tracker.ConvergenceRound(sub)
		curve := make([]float64, 0, len(tracker.History))
		for _, m := range tracker.History {
			curve = append(curve, m.Fraction[sub])
		}
		res.Curves[sub] = curve
	}
	if len(tracker.History) > 0 {
		res.Final = tracker.History[len(tracker.History)-1]
	}
	n := float64(sys.Engine().AliveCount())
	if n == 0 {
		n = 1
	}
	meterRounds := sys.Engine().Meter().Rounds()
	res.BaselinePerNode = make([]float64, 0, meterRounds)
	res.OverheadPerNode = make([]float64, 0, meterRounds)
	for r := 0; r < meterRounds; r++ {
		base, over := sys.BandwidthByClass(r)
		res.BaselinePerNode = append(res.BaselinePerNode, float64(base)/n)
		res.OverheadPerNode = append(res.OverheadPerNode, float64(over)/n)
	}
	return res
}

// convergedOrCap returns the convergence round, or the cap when the run
// never converged (so aggregates stay defined; the cap is also recorded in
// figure notes by the drivers).
func convergedOrCap(r *RunResult, sub core.Sub, cap int) float64 {
	if c := r.ConvergedAt[sub]; c >= 0 {
		return float64(c)
	}
	return float64(cap)
}

// subSeries allocates one series per sub-procedure, keyed in presentation
// order, pre-sized for the given number of points.
func subSeries(points int) map[core.Sub]*metrics.Series {
	out := make(map[core.Sub]*metrics.Series, 5)
	for _, sub := range core.Subs() {
		s := &metrics.Series{Name: sub.String()}
		s.Reserve(points)
		out[sub] = s
	}
	return out
}

// orderedSeries flattens a sub-series map into presentation order.
func orderedSeries(m map[core.Sub]*metrics.Series) []*metrics.Series {
	out := make([]*metrics.Series, 0, len(m))
	for _, sub := range core.Subs() {
		out = append(out, m[sub])
	}
	return out
}

// seedFor derives a deterministic per-(point, run) seed.
func seedFor(base int64, point, run int) int64 {
	return base + int64(point)*1_000_003 + int64(run)*7919
}

// describeScale renders a scale note for figure annotations.
func describeScale(o Options, format string, args ...any) string {
	mode := "reduced scale"
	if o.Full {
		mode = "paper scale"
	}
	return fmt.Sprintf("%s; %d runs per point (%s)", fmt.Sprintf(format, args...), o.Runs, mode)
}
