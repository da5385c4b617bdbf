// Command benchguard is the CI benchmark-regression gate: it parses `go
// test -bench` output for the anchored BenchmarkRound populations, compares
// them against the steady-state numbers recorded in a BENCH_*.json
// perf-trajectory record (sosf-bench/2 schema), and fails when the hot path
// regresses — any heap allocation per round, or ns/op more than the allowed
// percentage over the recorded baseline.
//
// Usage:
//
//	go test -run '^$' -bench '^BenchmarkRound$/' -benchtime 3x -benchmem . | \
//	    benchguard -baseline BENCH_PR4.json -max-regress 25
//
// Flags:
//
//	-baseline FILE    BENCH_*.json record with the engine_rounds baselines
//	-bench FILE       bench output to check ("-" or absent = stdin)
//	-max-regress PCT  allowed ns/op increase over baseline (default 25)
//	-min-speedup X    worker-scaling gate: for every population with both
//	                  a workers=1 and a workers=4 result, ns/op(workers=1)
//	                  divided by ns/op(workers=4) must reach X (default 0 =
//	                  off; skipped with a note when the runner has a
//	                  single CPU, where no speedup is physically possible)
//	-summary FILE     also append the markdown comparison table here
//	                  (default: $GITHUB_STEP_SUMMARY when set)
//
// Populations without a baseline entry are reported but not gated, so the
// bench matrix can grow ahead of the recorded trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineRecord is the slice of the sosf-bench/2 schema this tool reads.
type baselineRecord struct {
	Schema       string `json:"schema"`
	EngineRounds []struct {
		Nodes          int     `json:"nodes"`
		Workers        int     `json:"workers"`
		NSPerRound     float64 `json:"ns_per_round"`
		AllocsPerRound float64 `json:"allocs_per_round"`
	} `json:"engine_rounds"`
}

// benchResult is one parsed benchmark line.
type benchResult struct {
	name    string
	nodes   int
	workers int
	nsOp    float64
	allocs  int64
}

// benchLine matches `BenchmarkRound/n=10k-4  3  288788594 ns/op  12 B/op  0 allocs/op`
// and `BenchmarkRoundWorkers/n=10k/workers=4-4  ...`; populations carry a
// k (thousands) or M (millions) suffix, and the workers segment, the -cpus
// suffix, and the B/op column are all optional.
var benchLine = regexp.MustCompile(
	`^(BenchmarkRound(?:Workers)?/n=(\d+)([kM])(?:/workers=(\d+))?[^ \t]*)\s+\d+\s+([0-9.]+) ns/op(?:\s+[0-9.]+ B/op\s+(\d+) allocs/op)?`)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run() error {
	baselinePath := flag.String("baseline", "BENCH_PR4.json", "BENCH_*.json perf-trajectory record")
	benchPath := flag.String("bench", "-", "go test -bench output to check ('-' = stdin)")
	maxRegress := flag.Float64("max-regress", 25, "allowed ns/op increase over baseline, in percent")
	minSpeedup := flag.Float64("min-speedup", 0,
		"required workers=1 / workers=4 ns/op ratio per population (0 = gate off; skipped on single-CPU runners)")
	summaryPath := flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"),
		"markdown summary destination (appended; empty = stdout only)")
	flag.Parse()

	base, err := loadBaseline(*baselinePath)
	if err != nil {
		return err
	}
	var in io.Reader = os.Stdin
	if *benchPath != "" && *benchPath != "-" {
		f, err := os.Open(*benchPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no BenchmarkRound results found in the bench output")
	}

	table, failures := compare(results, base, *maxRegress)
	if *minSpeedup > 0 {
		scaling, scalingFailures := checkSpeedup(results, *minSpeedup, runtime.NumCPU())
		table += scaling
		failures = append(failures, scalingFailures...)
	}
	fmt.Print(table)
	if *summaryPath != "" {
		f, err := os.OpenFile(*summaryPath, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if _, err := f.WriteString(table); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("benchmark regression:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func loadBaseline(path string) (map[int]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec baselineRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if !strings.HasPrefix(rec.Schema, "sosf-bench/") {
		return nil, fmt.Errorf("%s: schema is %q, want sosf-bench/*", path, rec.Schema)
	}
	base := make(map[int]float64)
	for _, er := range rec.EngineRounds {
		if er.Workers <= 1 { // serial steady state is the anchored baseline
			base[er.Nodes] = er.NSPerRound
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("%s: no serial engine_rounds baselines", path)
	}
	return base, nil
}

func parseBench(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		count, err := strconv.Atoi(m[2])
		if err != nil {
			continue
		}
		scale := 1000
		if m[3] == "M" {
			scale = 1_000_000
		}
		workers := 1
		if m[4] != "" {
			if workers, err = strconv.Atoi(m[4]); err != nil {
				return nil, fmt.Errorf("bad workers in %q", sc.Text())
			}
		}
		nsOp, err := strconv.ParseFloat(m[5], 64)
		if err != nil {
			return nil, fmt.Errorf("bad ns/op in %q", sc.Text())
		}
		res := benchResult{name: m[1], nodes: count * scale, workers: workers, nsOp: nsOp, allocs: -1}
		if m[6] != "" {
			allocs, err := strconv.ParseInt(m[6], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q", sc.Text())
			}
			res.allocs = allocs
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// checkSpeedup is the worker-scaling gate: for every population that has
// both a workers=1 and a workers=4 result, the serial-over-sharded ns/op
// ratio must reach minSpeedup. The gate exists so the sharded Deliver path
// cannot silently degenerate into serialized execution — a determinism-
// preserving refactor that loses the parallelism would still pass every
// correctness test. On a single-CPU runner no speedup is physically
// possible, so the gate reports itself skipped instead of failing;
// anywhere else, a missing workers pair is a failure (the gate was asked
// for and has nothing to measure — most likely a bench-regex or CI-matrix
// typo).
func checkSpeedup(results []benchResult, minSpeedup float64, cpus int) (string, []string) {
	var b strings.Builder
	fmt.Fprintf(&b, "### Worker-scaling gate (workers=1 vs workers=4, required ≥ %.2fx)\n\n", minSpeedup)
	if cpus <= 1 {
		b.WriteString("skipped: single-CPU runner, no parallel speedup is possible\n\n")
		return b.String(), nil
	}
	type pair struct{ serial, sharded float64 }
	pairs := make(map[int]*pair)
	for _, res := range results {
		p := pairs[res.nodes]
		if p == nil {
			p = &pair{}
			pairs[res.nodes] = p
		}
		switch res.workers {
		case 1:
			p.serial = res.nsOp
		case 4:
			p.sharded = res.nsOp
		}
	}
	var populations []int
	for n, p := range pairs {
		if p.serial > 0 && p.sharded > 0 {
			populations = append(populations, n)
		}
	}
	if len(populations) == 0 {
		failure := "worker-scaling gate: no population has both a workers=1 and a workers=4 result"
		b.WriteString(failure + "\n\n")
		return b.String(), []string{failure}
	}
	sort.Ints(populations)
	var failures []string
	b.WriteString("| nodes | workers=1 ns/op | workers=4 ns/op | speedup | verdict |\n")
	b.WriteString("|---:|---:|---:|---:|---|\n")
	for _, n := range populations {
		p := pairs[n]
		speedup := p.serial / p.sharded
		verdict := "ok"
		if speedup < minSpeedup {
			verdict = fmt.Sprintf("FAIL (< %.2fx)", minSpeedup)
			failures = append(failures,
				fmt.Sprintf("worker-scaling at n=%d: %.2fx speedup (workers=1 %.0f ns/op, workers=4 %.0f ns/op) is under the required %.2fx",
					n, speedup, p.serial, p.sharded, minSpeedup))
		}
		fmt.Fprintf(&b, "| %d | %.0f | %.0f | %.2fx | %s |\n", n, p.serial, p.sharded, speedup, verdict)
	}
	b.WriteString("\n")
	return b.String(), failures
}

// compare renders the markdown comparison table and collects gate failures.
func compare(results []benchResult, base map[int]float64, maxRegress float64) (string, []string) {
	var b strings.Builder
	var failures []string
	b.WriteString("### Benchmark regression gate (BenchmarkRound vs. recorded baseline)\n\n")
	b.WriteString("| benchmark | ns/op | baseline ns/op | delta | allocs/op | verdict |\n")
	b.WriteString("|---|---:|---:|---:|---:|---|\n")
	for _, res := range results {
		baseNS, haveBase := base[res.nodes]
		// The recorded baselines are serial steady states; sharded results
		// are gated by the worker-scaling check instead, so a parallel
		// line is never held to (or flattered by) a serial number.
		if res.workers > 1 {
			haveBase = false
		}
		verdict := "ok"
		deltaCol := "n/a"
		baseCol := "—"
		if haveBase {
			delta := (res.nsOp - baseNS) / baseNS * 100
			deltaCol = fmt.Sprintf("%+.1f%%", delta)
			baseCol = fmt.Sprintf("%.0f", baseNS)
			if delta > maxRegress {
				verdict = fmt.Sprintf("FAIL (> +%.0f%%)", maxRegress)
				failures = append(failures,
					fmt.Sprintf("%s: %.0f ns/op is %+.1f%% over the %.0f ns/op baseline (limit +%.0f%%)",
						res.name, res.nsOp, delta, baseNS, maxRegress))
			}
		} else {
			verdict = "no baseline (not gated)"
		}
		allocsCol := "?"
		if res.allocs >= 0 {
			allocsCol = strconv.FormatInt(res.allocs, 10)
			if res.allocs > 0 {
				verdict = "FAIL (allocs > 0)"
				failures = append(failures,
					fmt.Sprintf("%s: %d allocs/op — the steady-state round must stay allocation-free", res.name, res.allocs))
			}
		}
		fmt.Fprintf(&b, "| %s | %.0f | %s | %s | %s | %s |\n",
			res.name, res.nsOp, baseCol, deltaCol, allocsCol, verdict)
	}
	b.WriteString("\n")
	return b.String(), failures
}
