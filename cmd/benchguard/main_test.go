package main

import (
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: sosf
cpu: whatever
BenchmarkRound/n=1k-4         	       3	  25000000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRound/n=10k-4        	       3	 290000000 ns/op	      16 B/op	       0 allocs/op
BenchmarkRound/n=100k-4       	       3	3100000000 ns/op	       0 B/op	       0 allocs/op
PASS
`

func sampleBaseline() map[int]float64 {
	return map[int]float64{1000: 24787944, 10000: 288788594}
}

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	if results[0].nodes != 1000 || results[0].nsOp != 25000000 || results[0].allocs != 0 {
		t.Fatalf("first result = %+v", results[0])
	}
	if results[2].nodes != 100000 {
		t.Fatalf("third result nodes = %d", results[2].nodes)
	}
}

func TestCompareWithinBudgetPasses(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	table, failures := compare(results, sampleBaseline(), 25)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	for _, want := range []string{"BenchmarkRound/n=1k-4", "no baseline (not gated)", "| ok |"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

func TestCompareFlagsNSRegression(t *testing.T) {
	bench := "BenchmarkRound/n=1k-4  3  40000000 ns/op  0 B/op  0 allocs/op\n"
	results, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	_, failures := compare(results, sampleBaseline(), 25)
	if len(failures) != 1 || !strings.Contains(failures[0], "over the") {
		t.Fatalf("failures = %v, want one ns/op regression", failures)
	}
}

func TestCompareFlagsAllocations(t *testing.T) {
	bench := "BenchmarkRound/n=1k-4  3  25000000 ns/op  128 B/op  2 allocs/op\n"
	results, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	_, failures := compare(results, sampleBaseline(), 25)
	if len(failures) != 1 || !strings.Contains(failures[0], "allocation-free") {
		t.Fatalf("failures = %v, want one allocation failure", failures)
	}
}

func TestParseBenchWorkersAndMillions(t *testing.T) {
	bench := `BenchmarkRoundWorkers/n=10k/workers=1-4   3  290000000 ns/op  0 B/op  0 allocs/op
BenchmarkRoundWorkers/n=10k/workers=4-4   3   80000000 ns/op  0 B/op  0 allocs/op
BenchmarkRound/n=1M-4                     1  31000000000 ns/op  0 B/op  0 allocs/op
`
	results, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3", len(results))
	}
	if results[0].workers != 1 || results[1].workers != 4 {
		t.Fatalf("workers = %d, %d, want 1, 4", results[0].workers, results[1].workers)
	}
	if results[2].nodes != 1_000_000 || results[2].workers != 1 {
		t.Fatalf("n=1M result = %+v", results[2])
	}
}

func TestCompareSkipsParallelBaseline(t *testing.T) {
	// A workers=4 line must not be gated against the serial baseline even
	// when it is slower than baseline+budget (e.g. on a saturated runner).
	bench := "BenchmarkRoundWorkers/n=1k/workers=4-4  3  99000000 ns/op  0 B/op  0 allocs/op\n"
	results, err := parseBench(strings.NewReader(bench))
	if err != nil {
		t.Fatal(err)
	}
	table, failures := compare(results, sampleBaseline(), 25)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(table, "no baseline (not gated)") {
		t.Fatalf("parallel line should be ungated:\n%s", table)
	}
}

func speedupResults(serialNS, shardedNS float64) []benchResult {
	return []benchResult{
		{name: "BenchmarkRoundWorkers/n=10k/workers=1-4", nodes: 10000, workers: 1, nsOp: serialNS},
		{name: "BenchmarkRoundWorkers/n=10k/workers=4-4", nodes: 10000, workers: 4, nsOp: shardedNS},
	}
}

func TestCheckSpeedupPasses(t *testing.T) {
	table, failures := checkSpeedup(speedupResults(300e6, 100e6), 1.5, 4)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(table, "3.00x") || !strings.Contains(table, "| ok |") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestCheckSpeedupFlagsFlatScaling(t *testing.T) {
	_, failures := checkSpeedup(speedupResults(300e6, 290e6), 1.5, 4)
	if len(failures) != 1 || !strings.Contains(failures[0], "under the required") {
		t.Fatalf("failures = %v, want one flat-scaling failure", failures)
	}
}

func TestCheckSpeedupSkipsSingleCPU(t *testing.T) {
	table, failures := checkSpeedup(speedupResults(300e6, 300e6), 1.5, 1)
	if len(failures) != 0 {
		t.Fatalf("unexpected failures: %v", failures)
	}
	if !strings.Contains(table, "skipped: single-CPU") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestCheckSpeedupFailsWithoutPairs(t *testing.T) {
	serialOnly := []benchResult{{name: "BenchmarkRound/n=10k-4", nodes: 10000, workers: 1, nsOp: 300e6}}
	_, failures := checkSpeedup(serialOnly, 1.5, 4)
	if len(failures) != 1 || !strings.Contains(failures[0], "no population") {
		t.Fatalf("failures = %v, want one missing-pair failure", failures)
	}
}

func TestLoadBaselineFromRepoRecord(t *testing.T) {
	base, err := loadBaseline("../../BENCH_PR4.json")
	if err != nil {
		t.Fatal(err)
	}
	if base[1000] == 0 || base[10000] == 0 {
		t.Fatalf("baseline = %v, want 1k and 10k serial entries", base)
	}
}
