// Command sos runs, validates, plays, checkpoints, or renders a topology
// described in the framework's DSL.
//
// Usage:
//
//	sos check file.sos             validate the DSL file
//	sos run [flags] file.sos       simulate and report convergence
//	sos play [flags] file.sos      simulate to the end of the file's
//	                               scenario timeline, streaming one round
//	                               event per round to stdout
//	sos snapshot [flags] file.sos  simulate exactly -rounds rounds,
//	                               streaming events like play, then write a
//	                               checkpoint of the complete run state to
//	                               -snap
//	sos resume [flags] file.sos    restore the run state from -snap and
//	                               continue to round -rounds (absolute),
//	                               streaming events like play — the
//	                               concatenated snapshot+resume streams are
//	                               byte-identical to one uninterrupted run,
//	                               at any -workers value on either side
//	sos dot [flags] file.sos       simulate, then emit the realized
//	                               topology as Graphviz DOT on stdout
//	sos serve [flags]              run the multi-tenant job service: submit
//	                               .sos files or JSON specs over HTTP, run
//	                               many simulations concurrently, stream
//	                               round events over SSE, and scrape
//	                               /metrics (see internal/serve)
//	sos fuzz [flags]               run a deterministic generative campaign:
//	                               sample randomized fault timelines over a
//	                               seed × topology × population matrix,
//	                               check invariants (reconvergence, orphan
//	                               tail, bandwidth, resume equivalence), and
//	                               shrink every violation to a minimal .sos
//	                               reproducer; exits non-zero on findings
//
// Flags for serve (it takes no file argument):
//
//	-addr HOST:PORT  listen address (default 127.0.0.1:8080)
//	-dir DIR         event spools and eviction checkpoints (default
//	                 sos-serve-data)
//	-max-resident N  memory budget: evict least-recently-used paused jobs
//	                 to snapshots beyond N resident jobs (default 0 = off)
//	-workers N       default round-sharding for jobs that don't set their
//	                 own (default 1; output identical for any value)
//
// Flags for fuzz (it takes no file argument):
//
//	-seed N        campaign master seed (default 1); the same seed always
//	               reproduces the same runs and the same reproducer bytes
//	-runs N        number of generated runs (default 8)
//	-horizon N     last round a sampled fault may touch (default 60)
//	-within N      rounds the system gets to re-converge after the last
//	               fault (default 40)
//	-bandwidth B   per-node per-round byte ceiling (default 12288)
//	-pop-floor F   require the population to stay above F of its initial
//	               size — deliberately strict, for seeding failures
//	-no-repair     sample kill blasts without replacement joins or the
//	               trailing rebalance (with self-healing on these timelines
//	               reconverge on their own; add -no-heal to expose the
//	               legacy index-hole gap)
//	-no-heal       disable the self-healing layer for every generated run
//	               (pins `option heal 0` in each spec, so reproducers
//	               replay the legacy behavior flag-free)
//	-no-resume     skip the per-run resume-equivalence check
//	-corpus DIR    write each finding as a NAME.in/NAME.out reproducer
//	               pair under DIR (see testdata/corpus)
//	-workers N     shard each simulated round (default 1; 0 = GOMAXPROCS)
//
// Flags for run, play, snapshot, resume, and dot:
//
//	-nodes N       population size (default: the file's `nodes` option)
//	-workers N     shard each simulation round across N workers (default 1;
//	               0 = GOMAXPROCS). Output is byte-identical for every
//	               worker count — workers only change the wall clock
//	-rounds N      maximum rounds to simulate (default 150; play extends
//	               this to the scenario horizon; for resume it is the
//	               absolute target round, counted from round 0)
//	-seed N        random seed (default 1)
//	-churn F       replace F of the population per round (e.g. 0.01)
//	-loss F        drop each exchange with probability F
//	-no-heal       disable the self-healing layer (legacy behavior: index
//	               holes from unreplaced deaths persist until a
//	               `reconfigure`); the file's `option heal 0` does the same
//	-to-end        keep running after convergence (play always does)
//	-snap FILE     (snapshot, resume) checkpoint file to write / read
//	-json          (run, play, snapshot, resume) print the final report as
//	               JSON with stable field names; where an event stream owns
//	               stdout it goes to stderr
//	-events FORMAT (play, snapshot, resume) event stream format:
//	               jsonl (default) or csv
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"sosf"
	"sosf/internal/campaign"
	"sosf/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sos:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: sos <check|run|play|snapshot|resume|dot> [flags] file.sos")
	}
	cmd, rest := args[0], args[1:]
	if cmd == "fuzz" {
		// fuzz has its own flag set and takes no DSL file.
		return fuzz(rest)
	}
	if cmd == "serve" {
		// serve has its own flag set and takes no DSL file either.
		return serveCmd(rest)
	}

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	nodes := fs.Int("nodes", 0, "population size (default: the file's nodes option)")
	rounds := fs.Int("rounds", sosf.DefaultRounds, "maximum rounds to simulate")
	seed := fs.Int64("seed", sosf.DefaultSeed, "random seed")
	churn := fs.Float64("churn", 0, "fraction of nodes replaced per round")
	loss := fs.Float64("loss", 0, "probability that an exchange is lost")
	noHeal := fs.Bool("no-heal", false, "disable the self-healing layer (legacy index-hole behavior)")
	toEnd := fs.Bool("to-end", false, "keep running after convergence")
	workers := fs.Int("workers", 1, "workers sharding each round (0 = GOMAXPROCS; output identical for any value)")
	asJSON := fs.Bool("json", false, "machine-readable final report (run, play, snapshot, resume)")
	events := fs.String("events", "jsonl", "play/snapshot/resume: event stream format, jsonl or csv")
	snapFile := fs.String("snap", "", "snapshot/resume: checkpoint file to write/read")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("%s: expected exactly one DSL file", cmd)
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	// -rounds and -seed are only forwarded when the user actually typed
	// them: left alone, the file's own `option rounds` / `option seed`
	// apply (and the usual defaults after that), so a self-contained .sos
	// reproducer replays its exact run with no flags at all.
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	opts := []sosf.Option{
		sosf.WithNodes(*nodes),
		sosf.WithChurn(*churn),
		sosf.WithLoss(*loss),
		sosf.WithWorkers(*workers),
	}
	if explicit["rounds"] {
		opts = append(opts, sosf.WithRounds(*rounds))
	}
	if explicit["seed"] {
		opts = append(opts, sosf.WithSeed(*seed))
	}
	if *noHeal {
		opts = append(opts, sosf.WithHealing(false))
	}
	if *toEnd {
		opts = append(opts, sosf.WithRunToEnd())
	}

	switch cmd {
	case "check":
		if err := sosf.Validate(string(src)); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case "run":
		rep, err := sosf.Run(string(src), opts...)
		if err != nil {
			return err
		}
		return printReport(os.Stdout, rep, *asJSON)
	case "play":
		return play(string(src), opts, *events, *asJSON)
	case "snapshot":
		return snapshot(string(src), opts, *events, *asJSON, *snapFile)
	case "resume":
		return resume(string(src), opts, *events, *asJSON, *snapFile)
	case "dot":
		sys, err := sosf.New(string(src), opts...)
		if err != nil {
			return err
		}
		if _, err := sys.Step(sys.RoundBudget()); err != nil {
			return err
		}
		fmt.Print(sys.DOT())
		return nil
	default:
		return fmt.Errorf("unknown command %q (want check, run, play, snapshot, resume, dot, serve, or fuzz)", cmd)
	}
}

// serveCmd runs the HTTP job service until SIGINT, then drains: in-flight
// requests finish, every running job parks at its next round boundary, and
// spools and checkpoints stay on disk in -dir.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	dir := fs.String("dir", "sos-serve-data", "directory for event spools and eviction checkpoints")
	maxResident := fs.Int("max-resident", 0, "evict LRU paused jobs to snapshots beyond this many resident jobs (0 = off)")
	workers := fs.Int("workers", 1, "default round-sharding for jobs that don't set their own (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected argument %q (submit topologies over HTTP)", fs.Arg(0))
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv, err := serve.NewServer(serve.Config{
		Dir:            *dir,
		MaxResident:    *maxResident,
		DefaultWorkers: *workers,
		Log:            logger,
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: *addr, Handler: srv.Handler()}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("serve: listening on http://%s (data in %s)", ln.Addr(), *dir)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop() // a second ^C kills us the default way
	logger.Printf("serve: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		return err
	}
	srv.Close()
	return nil
}

// fuzz runs a generative campaign and reports every minimized finding:
// the violation and reproducer source on stdout, progress on stderr, and
// optionally a committed-corpus pair per finding. Any finding makes the
// command fail, so a CI step can gate on a clean campaign.
func fuzz(args []string) error {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "campaign master seed")
	runs := fs.Int("runs", 8, "number of generated runs")
	horizon := fs.Int("horizon", 60, "last round a sampled fault may touch")
	within := fs.Int("within", 40, "reconvergence budget after the last fault")
	bandwidth := fs.Float64("bandwidth", 12288, "per-node per-round byte ceiling")
	popFloor := fs.Float64("pop-floor", 0, "population floor as a fraction of the initial size (0 = off; strict values seed failures)")
	noRepair := fs.Bool("no-repair", false, "sample kills without replacement joins or the trailing rebalance")
	noHeal := fs.Bool("no-heal", false, "disable the self-healing layer in every generated run (pins option heal 0)")
	noResume := fs.Bool("no-resume", false, "skip the per-run resume-equivalence check")
	corpusDir := fs.String("corpus", "", "write each finding as a NAME.in/NAME.out pair under this directory")
	workers := fs.Int("workers", 1, "workers sharding each round (0 = GOMAXPROCS; results identical for any value)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("fuzz: unexpected argument %q (the campaign generates its own topologies)", fs.Arg(0))
	}
	findings, err := campaign.New(campaign.Config{
		Seed:             *seed,
		Runs:             *runs,
		Horizon:          *horizon,
		ReconvergeWithin: *within,
		BandwidthCeiling: *bandwidth,
		PopulationFloor:  *popFloor,
		NoRepair:         *noRepair,
		NoHeal:           *noHeal,
		SkipResumeCheck:  *noResume,
		Workers:          *workers,
		Log:              os.Stderr,
	}).Run()
	if err != nil {
		return err
	}
	for i, f := range findings {
		fmt.Printf("finding %d: %s\nminimal reproducer (%d shrink steps, %d candidate runs):\n%s",
			i+1, f.Violation, f.ShrinkSteps, f.CandidateRuns, f.Source)
		if *corpusDir != "" {
			in, out, err := f.Write(*corpusDir)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s and %s\n", in, out)
		}
	}
	if len(findings) > 0 {
		return fmt.Errorf("fuzz: %d invariant violation(s) in %d runs (campaign seed %d)", len(findings), *runs, *seed)
	}
	fmt.Printf("ok: %d runs, 0 violations (campaign seed %d)\n", *runs, *seed)
	return nil
}

// subscribeEvents attaches the chosen event sink to stdout.
func subscribeEvents(sys *sosf.System, format string) error {
	switch format {
	case "jsonl":
		sys.Subscribe(sosf.JSONLSink(os.Stdout))
	case "csv":
		sys.Subscribe(sosf.CSVSink(os.Stdout))
	default:
		return fmt.Errorf("unknown -events format %q (want jsonl or csv)", format)
	}
	return nil
}

// snapshot plays exactly `rounds` rounds (no horizon extension: the
// checkpoint round must land where asked), streams the rounds' events to
// stdout, then writes the checkpoint. Together with resume it splits one
// run in two: the two commands' concatenated event streams are
// byte-identical to an uninterrupted `sos play` of the same file.
func snapshot(src string, opts []sosf.Option, format string, asJSON bool, snapFile string) error {
	if snapFile == "" {
		return fmt.Errorf("snapshot: -snap FILE is required")
	}
	sys, err := sosf.New(src, append(opts, sosf.WithRunToEnd())...)
	if err != nil {
		return err
	}
	if err := subscribeEvents(sys, format); err != nil {
		return err
	}
	if _, err := sys.Step(sys.RoundBudget()); err != nil {
		return err
	}
	if err := sys.WriteSnapshot(snapFile); err != nil {
		return err
	}
	return printReport(os.Stderr, sys.Report(), asJSON)
}

// resume restores the run state from the checkpoint and continues to the
// absolute round `rounds` (extended to the scenario horizon, like play),
// streaming the resumed rounds' events to stdout. A SIGINT is caught at the
// next round boundary and turned into a final interrupted.sosnap checkpoint,
// like play.
func resume(src string, opts []sosf.Option, format string, asJSON bool, snapFile string) error {
	if snapFile == "" {
		return fmt.Errorf("resume: -snap FILE is required")
	}
	sys, err := sosf.New(src, append(opts, sosf.WithRunToEnd(), sosf.WithRestoreFrom(snapFile))...)
	if err != nil {
		return err
	}
	if err := subscribeEvents(sys, format); err != nil {
		return err
	}
	rounds := sys.RoundBudget()
	if h := sys.ScenarioHorizon(); h > rounds {
		rounds = h
	}
	if rounds < sys.Round() {
		return fmt.Errorf("resume: checkpoint is at round %d, past the -rounds %d target", sys.Round(), rounds)
	}
	if err := stepInterruptible(sys, rounds-sys.Round()); err != nil {
		return err
	}
	return printReport(os.Stderr, sys.Report(), asJSON)
}

// interruptSnapshot is where a SIGINT-interrupted play/resume saves its
// final round-boundary checkpoint; `sos resume -snap interrupted.sosnap`
// picks the run back up from it.
const interruptSnapshot = "interrupted.sosnap"

// stepInterruptible steps the system n more rounds, catching SIGINT: the
// engine stops at the next round boundary (never mid-round) and the
// complete run state is checkpointed to interrupted.sosnap instead of the
// process dying with the progress lost.
func stepInterruptible(sys *sosf.System, n int) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	_, err := sys.StepContext(ctx, n)
	if errors.Is(err, context.Canceled) {
		stop() // restore default SIGINT behavior: a second ^C kills us
		if werr := sys.WriteSnapshot(interruptSnapshot); werr != nil {
			return fmt.Errorf("interrupted at round %d; saving %s failed: %w",
				sys.Round(), interruptSnapshot, werr)
		}
		return fmt.Errorf("interrupted at round %d; state saved to %s (continue with `sos resume -snap %s`)",
			sys.Round(), interruptSnapshot, interruptSnapshot)
	}
	return err
}

// play executes the file's scenario timeline (plus any -churn/-loss flags),
// streaming one round event per round to stdout and a final report to
// stderr. The run never stops at convergence — a timeline only makes sense
// played to the end — and -rounds is extended to the scenario horizon so
// the last scheduled action always fires. A SIGINT is caught at the next
// round boundary and turned into a final interrupted.sosnap checkpoint.
func play(src string, opts []sosf.Option, format string, asJSON bool) error {
	sys, err := sosf.New(src, append(opts, sosf.WithRunToEnd())...)
	if err != nil {
		return err
	}
	switch format {
	case "jsonl":
		sys.Subscribe(sosf.JSONLSink(os.Stdout))
	case "csv":
		sys.Subscribe(sosf.CSVSink(os.Stdout))
	default:
		return fmt.Errorf("play: unknown -events format %q (want jsonl or csv)", format)
	}
	rounds := sys.RoundBudget()
	if h := sys.ScenarioHorizon(); h > rounds {
		rounds = h
	}
	if err := stepInterruptible(sys, rounds); err != nil {
		return err
	}
	return printReport(os.Stderr, sys.Report(), asJSON)
}

func printReport(w *os.File, rep *sosf.Report, asJSON bool) error {
	if !asJSON {
		fmt.Fprint(w, rep)
		return nil
	}
	enc := json.NewEncoder(w)
	return enc.Encode(rep)
}
