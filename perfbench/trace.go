package main

import (
	"bytes"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"time"
)

// section measures one stretch of a run: wall time, allocations, garbage
// collection, and optionally a CPU profile of the whole process.
type section struct {
	t0      time.Time
	ms0     runtime.MemStats
	cpu0    [2]float64 // GC and total CPU seconds
	profile *bytes.Buffer
}

// sectionStats is what a section measured.
type sectionStats struct {
	wall     time.Duration
	mallocs  uint64
	alloc    uint64 // bytes
	gcCycles uint32
	gcCPU    float64            // seconds of GC CPU
	cpu      float64            // seconds of all CPU
	shares   map[string]float64 // per-layer CPU shares; nil when not profiled
	samples  int64
}

// add accumulates another unprofiled section's counts.
func (s *sectionStats) add(o sectionStats) {
	s.wall += o.wall
	s.mallocs += o.mallocs
	s.alloc += o.alloc
	s.gcCycles += o.gcCycles
	s.gcCPU += o.gcCPU
	s.cpu += o.cpu
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readCPU() [2]float64 {
	s := make([]rtmetrics.Sample, len(cpuMetrics))
	for i, n := range cpuMetrics {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	var out [2]float64
	for i := range s {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// beginSection starts measuring; with profile set it also starts the CPU
// profiler, which only one section may run at a time.
func beginSection(profile bool) (*section, error) {
	s := &section{}
	if profile {
		s.profile = new(bytes.Buffer)
		if err := pprof.StartCPUProfile(s.profile); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	runtime.ReadMemStats(&s.ms0)
	s.cpu0 = readCPU()
	s.t0 = time.Now()
	return s, nil
}

func (s *section) end() (sectionStats, error) {
	wall := time.Since(s.t0)
	cpu := readCPU()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := sectionStats{
		wall:     wall,
		mallocs:  ms.Mallocs - s.ms0.Mallocs,
		alloc:    ms.TotalAlloc - s.ms0.TotalAlloc,
		gcCycles: ms.NumGC - s.ms0.NumGC,
		gcCPU:    cpu[0] - s.cpu0[0],
		cpu:      cpu[1] - s.cpu0[1],
	}
	if s.profile != nil {
		pprof.StopCPUProfile()
		p, err := parseProfile(s.profile.Bytes())
		if err != nil {
			return st, err
		}
		if st.samples = p.samples(); st.samples == 0 {
			return st, fmt.Errorf("CPU profile of %v holds no samples", wall)
		}
		st.shares = p.attribute(layerRules, otherShare)
	}
	return st, nil
}

// heapInUse collects garbage and returns the live heap.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// slices runs the timed section as n slices of d/n each, calling between
// between consecutive slices; slice(d) measures one slice and returns its
// samples.
// Spreading a run's other samples (snapshots, restores) between slices
// lets them see the same mix of fast and slow host periods as the main
// samples, instead of one moment of it.
func slices(n int, d time.Duration, slice func(time.Duration) ([]float64, error), between func() error) ([]float64, sectionStats, error) {
	var out []float64
	var st sectionStats
	for i := 0; i < n; i++ {
		sec, err := beginSection(false)
		if err != nil {
			return out, st, err
		}
		xs, err := slice(d / time.Duration(n))
		out = append(out, xs...)
		s, serr := sec.end()
		st.add(s)
		if err != nil {
			return out, st, err
		}
		if serr != nil {
			return out, st, serr
		}
		if i < n-1 {
			if err := between(); err != nil {
				return out, st, err
			}
		}
	}
	return out, st, nil
}

// timeLoop calls op until d has elapsed and it ran at least minN times,
// returning each call's wall time in milliseconds.
func timeLoop(d time.Duration, minN int, op func() error) ([]float64, error) {
	var out []float64
	start := time.Now()
	for len(out) < minN || time.Since(start) < d {
		t := time.Now()
		if err := op(); err != nil {
			return out, err
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setRuntime reports the runtime layer from a section over ops operations.
func (r *run) setRuntime(st sectionStats, ops int) {
	frac := 0.0
	if st.cpu > 0 {
		frac = st.gcCPU / st.cpu
	}
	r.m.set("runtime.gc_cpu_fraction", frac)
	r.m.set("runtime.alloc_bytes_per_op", float64(st.alloc)/float64(ops))
	r.m.set("runtime.gc_pauses", float64(st.gcCycles)/float64(ops))
}

// setShares reports a profiled section's per-layer CPU shares.
func (r *run) setShares(st sectionStats) {
	for name, v := range st.shares {
		r.m.set(name, v)
	}
	r.stat("profile_samples", st.samples)
}
