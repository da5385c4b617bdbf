// Command perfbench is the repository benchmark: one named workload per run,
// driven by a seed, measured for a fixed number of seconds, with its outputs
// checked. It prints the simulated statistics as exact counts on one JSON
// line and the result on the last line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run reports the per-layer ones. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"syscall"
)

// run is one benchmark invocation: its inputs, what it has measured, and
// how many operations and output checks it attempted and failed.
type run struct {
	seed    int64
	seconds float64
	trace   bool

	m         *metrics
	stats     map[string]any // exact simulated statistics
	attempted int
	failed    int
}

// op records one attempted operation or output check; a non-nil err counts
// as a failure and is reported on stderr.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}

func (r *run) stat(name string, v any) { r.stats[name] = v }

// peakRSSMB reads the process's maximum resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

var workloads = map[string]func(*run) error{
	"steady-10k":    steady,
	"play-churn-2k": playChurn,
	"serve-jobs":    serveJobs,
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long the timed section measures")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	r := &run{seed: *seed, seconds: *seconds, trace: *trace == 1, m: newMetrics(), stats: map[string]any{}}
	if err := fn(r); err != nil {
		r.op(fmt.Errorf("%s: %w", *name, err))
	}

	want := endToEnd
	if r.trace {
		want = perLayer()
	}
	out, err := r.m.selectDeclared(want)
	if err != nil {
		r.op(err)
	}
	r.stat("error_rate", float64(r.failed)/float64(max(r.attempted, 1)))
	statsLine, err := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "stats": r.stats})
	if err != nil {
		r.op(err)
	}
	fmt.Println(string(statsLine))
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, max(r.attempted, 1), r.failed, out})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(res))
	if r.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
