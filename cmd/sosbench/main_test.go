package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"sosf/internal/eval"
	"sosf/internal/metrics"
)

func sampleFigure() *eval.Figure {
	s := &metrics.Series{Name: "Elementary Topology"}
	s.Append(100, metrics.Summary{Mean: 8, CI90: 0.3})
	s.Append(200, metrics.Summary{Mean: 10, CI90: 0.4})
	return &eval.Figure{
		ID:     "sample",
		Title:  "Sample figure",
		XLabel: "# of Nodes",
		YLabel: "rounds",
		LogX:   true,
		Series: []*metrics.Series{s},
		Notes:  []string{"note"},
	}
}

func TestWriterFigureFiles(t *testing.T) {
	dir := t.TempDir()
	w := &writer{dir: dir}

	// Silence the stdout rendering for the test.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = w.figure(sampleFigure())
	os.Stdout = old
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}

	dat, err := os.ReadFile(filepath.Join(dir, "sample.dat"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dat), "Elementary_Topology") {
		t.Fatalf("dat file:\n%s", dat)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "sample.svg"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatal("svg file malformed")
	}
}

func TestWriterTableFiles(t *testing.T) {
	dir := t.TempDir()
	w := &writer{dir: dir}
	tbl := metrics.NewTable("a", "b")
	tbl.AddRow("1", "2")

	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	err = w.table(&eval.TableResult{ID: "t", Title: "T", Table: tbl})
	os.Stdout = old
	devnull.Close()
	if err != nil {
		t.Fatal(err)
	}

	txt, err := os.ReadFile(filepath.Join(dir, "t.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(txt), "1") {
		t.Fatalf("table file:\n%s", txt)
	}
}

// TestMillionNodeRound is the scale smoke behind `sosbench -nodes 1000000`:
// a full-stack million-node population must build and complete steady-state
// rounds. One warm round plus one measured round keeps it affordable in the
// unshortened CI test job; -short skips it entirely.
func TestMillionNodeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node round smoke skipped in -short mode")
	}
	m, err := measureRound(1_000_000, 1, 1, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes != 1_000_000 || m.NSPerRound <= 0 {
		t.Fatalf("metric = %+v, want a positive round cost at 1M nodes", m)
	}
	// One warm round has already carved every per-slot arena the steady
	// state touches, so the measured round must be allocation-free modulo
	// runtime noise (ReadMemStats counts background allocations too).
	if m.AllocsPerRound > 100 {
		t.Fatalf("measured round made %.0f allocations; the hot path should be allocation-free", m.AllocsPerRound)
	}
	t.Logf("1M-node round: %.1f ms (workers=%d)", m.NSPerRound/1e6, m.Workers)
}

// TestProfilesCoverPopulationMode pins that -cpuprofile and -memprofile
// start before the mode dispatch, so a -nodes run writes both profiles
// instead of returning before profiling begins.
func TestProfilesCoverPopulationMode(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	if err := run([]string{"-nodes", "200", "-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Fatalf("%s is empty", filepath.Base(path))
		}
	}
}

// validRecord builds a minimal record that passes the sosf-bench/2 schema
// check; the failure cases below each break exactly one field.
func validRecord() benchRecord {
	round := roundMetric{Nodes: 1000, Workers: 1, Rounds: 50, NSPerRound: 1e6}
	return benchRecord{
		Schema:       benchSchema,
		Go:           "go1.22.0",
		GOOS:         "linux",
		GOARCH:       "amd64",
		CPUs:         1,
		EngineRounds: []roundMetric{round},
		WorkerScaling: []roundMetric{
			round,
			{Nodes: 1000, Workers: 4, Rounds: 50, NSPerRound: 5e5},
		},
		Drivers:     []driverMetric{{Name: "fig2", WallMS: 12.5}},
		TotalWallMS: 100,
	}
}

func TestValidateBenchRecordAcceptsValid(t *testing.T) {
	rec := validRecord()
	if err := validateBenchRecord(&rec); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBenchRecordRejectsFlatScalingOnMultiCore(t *testing.T) {
	rec := validRecord()
	rec.CPUs = 4
	rec.WorkerScaling = []roundMetric{
		{Nodes: 10000, Workers: 1, Rounds: 10, NSPerRound: 290e6},
		{Nodes: 10000, Workers: 2, Rounds: 10, NSPerRound: 289e6},
		{Nodes: 10000, Workers: 4, Rounds: 10, NSPerRound: 291e6},
	}
	err := validateBenchRecord(&rec)
	if err == nil || !strings.Contains(err.Error(), "flat") {
		t.Fatalf("err = %v, want a flat worker_scaling rejection", err)
	}
}

func TestValidateBenchRecordAcceptsFlatScalingOnSingleCPU(t *testing.T) {
	// On one CPU flat scaling is the only honest shape — the gate is about
	// records claiming multi-core hardware.
	rec := validRecord()
	rec.CPUs = 1
	rec.WorkerScaling = []roundMetric{
		{Nodes: 10000, Workers: 1, Rounds: 10, NSPerRound: 290e6},
		{Nodes: 10000, Workers: 4, Rounds: 10, NSPerRound: 290e6},
	}
	if err := validateBenchRecord(&rec); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBenchRecordAcceptsRealScaling(t *testing.T) {
	rec := validRecord()
	rec.CPUs = 4
	rec.WorkerScaling = []roundMetric{
		{Nodes: 10000, Workers: 1, Rounds: 10, NSPerRound: 290e6},
		{Nodes: 10000, Workers: 2, Rounds: 10, NSPerRound: 160e6},
		{Nodes: 10000, Workers: 4, Rounds: 10, NSPerRound: 90e6},
	}
	if err := validateBenchRecord(&rec); err != nil {
		t.Fatal(err)
	}
}

func TestValidateBenchRecordRejectsMalformed(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(*benchRecord)
	}{
		{"wrong schema", func(r *benchRecord) { r.Schema = "sosf-bench/1" }},
		{"missing go version", func(r *benchRecord) { r.Go = "" }},
		{"zero cpus", func(r *benchRecord) { r.CPUs = 0 }},
		{"no engine rounds", func(r *benchRecord) { r.EngineRounds = nil }},
		{"zero-node round", func(r *benchRecord) { r.EngineRounds[0].Nodes = 0 }},
		{"negative ns", func(r *benchRecord) { r.WorkerScaling[1].NSPerRound = -1 }},
		{"no drivers", func(r *benchRecord) { r.Drivers = nil }},
		{"unnamed driver", func(r *benchRecord) { r.Drivers[0].Name = "" }},
		{"zero driver wall", func(r *benchRecord) { r.Drivers[0].WallMS = 0 }},
		{"zero total", func(r *benchRecord) { r.TotalWallMS = 0 }},
	}
	for _, tc := range cases {
		rec := validRecord()
		tc.break_(&rec)
		if err := validateBenchRecord(&rec); err == nil {
			t.Errorf("%s: malformed record passed validation", tc.name)
		}
	}
}
