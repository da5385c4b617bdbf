// Command sosbench regenerates every table and figure of the paper's
// evaluation (plus the extension experiments documented in DESIGN.md).
//
// Usage:
//
//	sosbench -all                       run everything
//	sosbench -fig2 -fig3 -fig4          the paper's three figures
//	sosbench -gallery -curves -reconfig the paper's experiments (i)-(iii)
//	sosbench -churn -catastrophe        robustness extensions
//	sosbench -ablations                 design-choice ablations
//
// Common flags:
//
//	-full        paper-scale runs (25 600 nodes, 25 repetitions; slow)
//	-runs N      repetitions per data point (default 5; 25 with -full)
//	-seed N      base random seed (default 1)
//	-parallel N  worker goroutines fanning independent runs
//	             (default GOMAXPROCS; 1 = sequential; output is
//	             byte-identical either way)
//	-workers N   shard each simulation round across N workers
//	             (default 1; 0 = GOMAXPROCS). Per-node RNG streams keep
//	             every figure and table byte-identical for any value;
//	             use it to speed up single large runs
//	-out DIR     also write <id>.dat, <id>.svg and <id>.txt files
//
// Performance instrumentation:
//
//	-cpuprofile FILE  write a pprof CPU profile of the whole run, in every
//	                  mode (-nodes included)
//	-memprofile FILE  write a pprof heap profile at exit
//	-nodes N          population mode: build one full-stack system of N
//	                  nodes and report steady-state round cost, skipping
//	                  every figure driver (-nodes 1000000 is the
//	                  million-node smoke)
//	-benchjson FILE   write machine-readable metrics (wall clock, heap
//	                  bytes and allocation counts per figure driver,
//	                  steady-state engine-round cost at 1k/10k nodes, and
//	                  a worker-scaling section: ns/round at 1/2/4/8
//	                  intra-round workers) — the BENCH_*.json
//	                  perf-trajectory records committed alongside
//	                  performance PRs are generated this way
//
// Each experiment prints an aligned table and an ASCII chart, plus its
// wall-clock time; with -out it also writes gnuplot-ready .dat files and
// standalone .svg charts. A final summary line reports the total wall
// clock and the parallelism used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"sosf/internal/core"
	"sosf/internal/eval"
	"sosf/internal/plot"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sosbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sosbench", flag.ExitOnError)
	all := fs.Bool("all", false, "run every experiment")
	fig2 := fs.Bool("fig2", false, "Figure 2: convergence vs. nodes")
	fig3 := fs.Bool("fig3", false, "Figure 3: convergence vs. components")
	fig4 := fs.Bool("fig4", false, "Figure 4: bandwidth baseline vs. overhead")
	gallery := fs.Bool("gallery", false, "experiment (i): topology gallery")
	curves := fs.Bool("curves", false, "experiment (ii): accuracy over time")
	reconfig := fs.Bool("reconfig", false, "experiment (iii): live reconfiguration")
	churn := fs.Bool("churn", false, "extension: continuous churn")
	catastrophe := fs.Bool("catastrophe", false, "extension: catastrophic failures")
	ablations := fs.Bool("ablations", false, "design-choice ablations")
	baselineCmp := fs.Bool("baseline", false, "composed runtime vs. monolithic overlay")
	full := fs.Bool("full", false, "paper-scale runs (slow)")
	runs := fs.Int("runs", 0, "repetitions per data point")
	seed := fs.Int64("seed", 1, "base random seed")
	parallel := fs.Int("parallel", 0,
		"worker goroutines fanning independent runs (0 = GOMAXPROCS, 1 = sequential)")
	roundWorkers := fs.Int("workers", 1,
		"workers sharding each simulation round (0 = GOMAXPROCS; output identical for any value)")
	out := fs.String("out", "", "directory for .dat/.svg/.txt outputs")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile to this file at exit")
	benchjson := fs.String("benchjson", "", "write machine-readable benchmark metrics (BENCH_*.json) to this file")
	nodesBench := fs.Int("nodes", 0,
		"population mode: build one full-stack system of N nodes, warm it, and report steady-state round cost, skipping every figure driver (`-nodes 1000000` is the million-node smoke; honors -workers)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sosbench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "sosbench: memprofile:", err)
			}
		}()
	}

	if *nodesBench > 0 {
		return populationBench(*nodesBench, *roundWorkers)
	}
	o := eval.Options{
		Runs:         *runs,
		Seed:         *seed,
		Full:         *full,
		Parallelism:  *parallel,
		RoundWorkers: *roundWorkers,
	}
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	w := &writer{dir: *out}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	// Every driver is presented uniformly as a Result producer so timing
	// and rendering treat figures and tables alike.
	wrap := func(f func(eval.Options) (*eval.Figure, error)) func(eval.Options) (*eval.Result, error) {
		return func(o eval.Options) (*eval.Result, error) {
			fig, err := f(o)
			if err != nil {
				return nil, err
			}
			return &eval.Result{Figures: []*eval.Figure{fig}}, nil
		}
	}
	drivers := []struct {
		name    string
		enabled bool
		run     func(eval.Options) (*eval.Result, error)
	}{
		{"fig2", *all || *fig2, wrap(eval.Fig2)},
		{"fig3", *all || *fig3, wrap(eval.Fig3)},
		{"fig4", *all || *fig4, wrap(eval.Fig4)},
		{"curves", *all || *curves, wrap(eval.Curves)},
		{"churn", *all || *churn, wrap(eval.Churn)},
		{"ablation-uo2", *all || *ablations, wrap(eval.AblationUO2)},
		{"ablation-randomness", *all || *ablations, wrap(eval.AblationRandomness)},
		{"ablation-gossip", *all || *ablations, wrap(eval.AblationGossip)},
		{"ablation-viewsize", *all || *ablations, wrap(eval.AblationViewSize)},
		{"gallery", *all || *gallery, eval.Gallery},
		{"reconfig", *all || *reconfig, eval.Reconfig},
		{"catastrophe", *all || *catastrophe, eval.Catastrophe},
		{"baseline", *all || *baselineCmp, eval.Baseline},
	}

	any := false
	var metrics []driverMetric
	start := time.Now()
	for _, d := range drivers {
		if !d.enabled {
			continue
		}
		any = true
		var msBefore runtime.MemStats
		if *benchjson != "" {
			runtime.ReadMemStats(&msBefore)
		}
		t0 := time.Now()
		res, err := d.run(o)
		if err != nil {
			return err
		}
		elapsed := time.Since(t0)
		if *benchjson != "" {
			var msAfter runtime.MemStats
			runtime.ReadMemStats(&msAfter)
			metrics = append(metrics, driverMetric{
				Name:   d.name,
				WallMS: float64(elapsed) / float64(time.Millisecond),
				Bytes:  msAfter.TotalAlloc - msBefore.TotalAlloc,
				Allocs: msAfter.Mallocs - msBefore.Mallocs,
			})
		}
		for _, fig := range res.Figures {
			if err := w.figure(fig); err != nil {
				return err
			}
		}
		for _, tbl := range res.Tables {
			if err := w.table(tbl); err != nil {
				return err
			}
		}
		fmt.Printf("[%s: %v]\n\n", d.name, elapsed.Round(time.Millisecond))
	}
	if !any {
		fs.Usage()
		return fmt.Errorf("no experiment selected (try -all)")
	}
	total := time.Since(start)
	fmt.Printf("total wall-clock %v (parallelism %d)\n",
		total.Round(time.Millisecond), workers)
	if *benchjson != "" {
		if err := writeBenchJSON(*benchjson, o, workers, metrics, total); err != nil {
			return err
		}
		fmt.Printf("benchmark metrics written to %s\n", *benchjson)
	}
	return nil
}

// populationBench implements -nodes: build one full-stack system at the
// given population, warm it briefly, and report steady-state round cost.
// It is the scale smoke — `sosbench -nodes 1000000` answers "does a
// million-node round complete, and at what rate" in one command, without
// touching any figure driver. Two warm rounds are enough at this scale:
// the first round carves every per-slot arena the steady state uses, and
// convergence is irrelevant to round cost.
func populationBench(nodes, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("building full-stack system: %d nodes, %d round workers\n", nodes, workers)
	t0 := time.Now()
	m, err := measureRound(nodes, 3, 2, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%d nodes: %.1f ms/round, %.0f B/round, %.1f allocs/round (workers=%d, %d rounds measured, %v total)\n",
		m.Nodes, m.NSPerRound/1e6, m.BytesPerRound, m.AllocsPerRound,
		m.Workers, m.Rounds, time.Since(t0).Round(time.Millisecond))
	return nil
}

// driverMetric is one figure driver's cost in a BENCH_*.json record.
type driverMetric struct {
	Name   string  `json:"name"`
	WallMS float64 `json:"wall_ms"`
	Bytes  uint64  `json:"bytes"`
	Allocs uint64  `json:"allocs"`
}

// roundMetric is the steady-state cost of one full-stack engine round —
// the allocation-free hot path's headline number, measured directly so the
// perf-trajectory record is self-contained and regenerable by one command.
type roundMetric struct {
	Nodes          int     `json:"nodes"`
	Workers        int     `json:"workers"`
	Rounds         int     `json:"rounds_measured"`
	NSPerRound     float64 `json:"ns_per_round"`
	BytesPerRound  float64 `json:"bytes_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// benchRecord is the BENCH_*.json schema (sosf-bench/2): environment,
// per-driver costs, steady-state engine-round costs, the worker-scaling
// section (ns/round at 1/2/4/8 intra-round workers — the v2 addition,
// together with the per-round worker count on every round metric).
type benchRecord struct {
	Schema        string         `json:"schema"`
	Go            string         `json:"go"`
	GOOS          string         `json:"goos"`
	GOARCH        string         `json:"goarch"`
	CPUs          int            `json:"cpus"`
	Parallelism   int            `json:"parallelism"`
	RoundWorkers  int            `json:"round_workers"`
	Seed          int64          `json:"seed"`
	Runs          int            `json:"runs"`
	Full          bool           `json:"full"`
	EngineRounds  []roundMetric  `json:"engine_rounds,omitempty"`
	WorkerScaling []roundMetric  `json:"worker_scaling,omitempty"`
	Drivers       []driverMetric `json:"drivers,omitempty"`
	TotalWallMS   float64        `json:"total_wall_ms"`
}

// measureRound runs a warmed full-stack system (ring of rings, 20
// components — the BenchmarkRound configuration) for `rounds` rounds with
// the given intra-round worker count and reports per-round wall clock and
// heap cost. `warm` untimed rounds run first so the measurement sees
// steady-state gossip (the BENCH_*.json records use 10; the million-node
// smoke uses fewer, since one warm round there already touches every
// carve path the steady state will hit).
func measureRound(nodes, rounds, warm, workers int) (roundMetric, error) {
	sys, err := core.NewSystem(core.Config{
		Topology: eval.MustTopology(eval.RingOfRingsDSL(20)),
		Nodes:    nodes,
		Seed:     1,
		Workers:  workers,
	})
	if err != nil {
		return roundMetric{}, err
	}
	if _, err := sys.Run(warm); err != nil {
		return roundMetric{}, err
	}
	sys.Engine().Meter().Reserve(rounds + 1)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	if _, err := sys.Run(rounds); err != nil {
		return roundMetric{}, err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&after)
	r := float64(rounds)
	return roundMetric{
		Nodes:          nodes,
		Workers:        workers,
		Rounds:         rounds,
		NSPerRound:     float64(elapsed.Nanoseconds()) / r,
		BytesPerRound:  float64(after.TotalAlloc-before.TotalAlloc) / r,
		AllocsPerRound: float64(after.Mallocs-before.Mallocs) / r,
	}, nil
}

// benchSchema is the schema identifier every BENCH_*.json record carries.
const benchSchema = "sosf-bench/2"

// validateBenchRecord checks a record against the sosf-bench/2 schema
// before it is written: a crashed or partial run must not overwrite a good
// perf-trajectory record with half-empty JSON (the failure mode this guards
// against: CI and the benchmark-regression gate consume these files).
func validateBenchRecord(rec *benchRecord) error {
	if rec.Schema != benchSchema {
		return fmt.Errorf("schema is %q, want %q", rec.Schema, benchSchema)
	}
	if rec.Go == "" || rec.GOOS == "" || rec.GOARCH == "" {
		return fmt.Errorf("environment fields must be set (go=%q goos=%q goarch=%q)", rec.Go, rec.GOOS, rec.GOARCH)
	}
	if rec.CPUs < 1 {
		return fmt.Errorf("cpus must be >= 1, got %d", rec.CPUs)
	}
	if len(rec.EngineRounds) == 0 {
		return fmt.Errorf("engine_rounds must not be empty")
	}
	validRound := func(section string, m roundMetric) error {
		if m.Nodes < 1 || m.Rounds < 1 || m.Workers < 1 {
			return fmt.Errorf("%s: nodes/rounds/workers must be >= 1, got %d/%d/%d", section, m.Nodes, m.Rounds, m.Workers)
		}
		if m.NSPerRound <= 0 || m.BytesPerRound < 0 || m.AllocsPerRound < 0 {
			return fmt.Errorf("%s (nodes=%d workers=%d): metrics out of range (ns=%g B=%g allocs=%g)",
				section, m.Nodes, m.Workers, m.NSPerRound, m.BytesPerRound, m.AllocsPerRound)
		}
		return nil
	}
	for _, m := range rec.EngineRounds {
		if err := validRound("engine_rounds", m); err != nil {
			return err
		}
	}
	for _, m := range rec.WorkerScaling {
		if err := validRound("worker_scaling", m); err != nil {
			return err
		}
	}
	if rec.CPUs > 1 {
		if err := checkWorkerScalingNotFlat(rec.WorkerScaling); err != nil {
			return err
		}
	}
	if len(rec.Drivers) == 0 {
		return fmt.Errorf("drivers must not be empty")
	}
	for i, d := range rec.Drivers {
		if d.Name == "" {
			return fmt.Errorf("driver %d has no name", i)
		}
		if d.WallMS <= 0 {
			return fmt.Errorf("driver %q: wall_ms must be > 0, got %g", d.Name, d.WallMS)
		}
	}
	if rec.TotalWallMS <= 0 {
		return fmt.Errorf("total_wall_ms must be > 0, got %g", rec.TotalWallMS)
	}
	return nil
}

// flatScalingEpsilon is the relative ns_per_round spread below which a
// population's worker sweep counts as flat. Real measurements carry a few
// percent of run-to-run noise even on one CPU (compare BENCH_PR4.json's
// 1k entries), so a sweep where every worker count lands within 2% of
// every other is not a plausible multi-core measurement.
const flatScalingEpsilon = 0.02

// checkWorkerScalingNotFlat rejects a worker_scaling section in which some
// population's sweep is identical (within epsilon) across worker counts,
// on a record claiming a multi-core runner. A record like that means the
// sharded round path silently serialized — exactly the regression the
// perf-trajectory records exist to catch — or the sweep was fabricated by
// copying one measurement. Single-CPU records are exempt: flat is the only
// honest shape there (the caller gates on rec.CPUs).
func checkWorkerScalingNotFlat(scaling []roundMetric) error {
	byNodes := make(map[int]map[int]float64)
	for _, m := range scaling {
		ws := byNodes[m.Nodes]
		if ws == nil {
			ws = make(map[int]float64)
			byNodes[m.Nodes] = ws
		}
		ws[m.Workers] = m.NSPerRound
	}
	for nodes, ws := range byNodes {
		if len(ws) < 2 {
			continue
		}
		min, max := 0.0, 0.0
		for _, ns := range ws {
			if min == 0 || ns < min {
				min = ns
			}
			if ns > max {
				max = ns
			}
		}
		if (max-min)/min <= flatScalingEpsilon {
			return fmt.Errorf(
				"worker_scaling at %d nodes is flat (%d worker counts within %.0f%% of each other) on a %s record claiming multiple CPUs — sharded rounds are not scaling",
				nodes, len(ws), flatScalingEpsilon*100, benchSchema)
		}
	}
	return nil
}

func writeBenchJSON(path string, o eval.Options, workers int, metrics []driverMetric, total time.Duration) error {
	rec := benchRecord{
		Schema:       benchSchema,
		Go:           runtime.Version(),
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		CPUs:         runtime.NumCPU(),
		Parallelism:  workers,
		RoundWorkers: o.RoundWorkers,
		Seed:         o.Seed,
		Runs:         o.Runs,
		Full:         o.Full,
		Drivers:      metrics,
		TotalWallMS:  float64(total) / float64(time.Millisecond),
	}
	for _, cfg := range []struct{ nodes, rounds int }{{1000, 50}, {10_000, 10}} {
		// Worker-scaling section: the same steady-state rounds sharded
		// across 1/2/4/8 workers. The results are byte-identical (the
		// per-node streams guarantee it); only ns_per_round moves, and
		// only as far as the machine has cores — `cpus` above records
		// how many this record's runner really had. The workers=1 entry
		// doubles as the serial engine_rounds record, so the most
		// expensive measurement runs once.
		for _, w := range []int{1, 2, 4, 8} {
			sm, err := measureRound(cfg.nodes, cfg.rounds, 10, w)
			if err != nil {
				return err
			}
			rec.WorkerScaling = append(rec.WorkerScaling, sm)
			if w == 1 {
				rec.EngineRounds = append(rec.EngineRounds, sm)
			}
		}
	}
	if err := validateBenchRecord(&rec); err != nil {
		return fmt.Errorf("benchjson: refusing to write %s: %w", path, err)
	}
	buf, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// writer renders results to stdout and, optionally, to files.
type writer struct {
	dir string
}

func (w *writer) figure(f *eval.Figure) error {
	fmt.Printf("== %s ==\n", f.Title)
	for _, n := range f.Notes {
		fmt.Printf("   (%s)\n", n)
	}
	fmt.Println()
	fmt.Print(f.Table().String())
	fmt.Println()
	fmt.Print(plot.ASCII(f.Title, f.XLabel, f.LogX, f.Series...))
	fmt.Println()
	if w.dir == "" {
		return nil
	}
	dat := plot.DAT(f.XLabel, f.Series...)
	if err := os.WriteFile(filepath.Join(w.dir, f.ID+".dat"), []byte(dat), 0o644); err != nil {
		return err
	}
	svg := plot.SVG(f.Title, f.XLabel, f.YLabel, f.LogX, f.Series...)
	return os.WriteFile(filepath.Join(w.dir, f.ID+".svg"), []byte(svg), 0o644)
}

func (w *writer) table(t *eval.TableResult) error {
	fmt.Printf("== %s ==\n", t.Title)
	for _, n := range t.Notes {
		fmt.Printf("   (%s)\n", n)
	}
	fmt.Println()
	fmt.Print(t.Table.String())
	fmt.Println()
	if w.dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(w.dir, t.ID+".txt"), []byte(t.Table.String()), 0o644)
}
