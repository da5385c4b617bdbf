package main

import (
	"bytes"
	"fmt"
	"time"

	"sosf/internal/core"
	"sosf/internal/dsl"
	"sosf/internal/eval"
)

// steady-10k: the BenchmarkRound configuration (ring of 20 rings, 10 000
// nodes, one worker) past warm-up — the protocol hot path with no oracle,
// scenario, events or serve in the loop.
const (
	steadyNodes  = 10_000
	steadyRings  = 20
	steadyWarmup = 10 // BenchmarkRound's warm-up
	steadySetups = 3  // setup_s is the median of this many builds
	// steadySlices splits the timed rounds; a snapshot sample follows each.
	steadySlices = 6
	steadySnaps  = 3 // snapshots per sample
	// playdemoHoriz is playdemo's horizon: play_s here is a play that long.
	playdemoHoriz = 150
)

func steady(r *run) error {
	src := eval.RingOfRingsDSL(steadyRings)
	if err := r.measureParse(src); err != nil {
		return err
	}
	base := heapInUse()

	// Set up several times from the same seed: every build must meter the
	// same bytes, and setup_s is the median.
	var sys *core.System
	var setups []float64
	var warmBytes []int64
	for i := 0; i < steadySetups; i++ {
		sys = nil
		heapInUse()
		t0 := time.Now()
		topo, err := dsl.ParseTopology(src)
		if err != nil {
			return err
		}
		sys, err = core.NewSystem(core.Config{Topology: topo, Nodes: steadyNodes, Seed: r.seed, Workers: 1})
		if err != nil {
			return err
		}
		for round := 0; round < steadyWarmup; round++ {
			sys.Engine().RunRound()
		}
		setups = append(setups, time.Since(t0).Seconds())
		got := roundBytes(sys.Engine().Meter(), steadyWarmup-1)
		if warmBytes == nil {
			warmBytes = got
		} else {
			r.op(equalBytes("rebuilt system's last warm-up round", got, warmBytes))
		}
	}
	r.m.set("setup_s", median(setups))
	r.m.set("bytes_per_node", float64(heapInUse()-base)/steadyNodes)
	r.stat("warmup_last_round_bytes", protoMap(sys.Engine().Meter(), warmBytes))

	// Snapshot, restore and one round of the restored system, first at the
	// warm-up boundary (where the state is a function of the seed alone, so
	// the sizes are exact statistics) and then between slices of the timed
	// rounds. The restored system's round must meter what the original's
	// next round meters.
	var snaps, restores, firsts []float64
	var pending []int64 // restored system's round, awaiting the original's
	sample := func() (int, error) {
		heapInUse() // the previous restore is garbage; keep it out of the timings
		var snapshot []byte
		for i := 0; i < steadySnaps; i++ {
			var buf bytes.Buffer
			t0 := time.Now()
			if err := sys.Snapshot(&buf); err != nil {
				return 0, fmt.Errorf("snapshot: %w", err)
			}
			snaps = append(snaps, time.Since(t0).Seconds())
			if snapshot != nil {
				r.op(sameBytes("repeated snapshot", buf.Bytes(), snapshot))
			}
			snapshot = buf.Bytes()
		}
		t0 := time.Now()
		restored, err := core.RestoreSystem(bytes.NewReader(snapshot), 1)
		if err != nil {
			return 0, fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, time.Since(t0).Seconds())
		e := restored.Engine()
		e.RunRound()
		firsts = append(firsts, ms(time.Since(t0)))
		pending = roundBytes(e.Meter(), e.Meter().Rounds()-1)
		return len(snapshot), nil
	}
	round := func() error {
		e := sys.Engine()
		e.RunRound()
		last := e.Meter().Rounds() - 1
		if pending != nil {
			r.op(equalBytes("restored system's next round", pending, roundBytes(e.Meter(), last)))
			pending = nil
		}
		return nonzeroRound(e.Meter(), last)
	}
	size, err := sample()
	if err != nil {
		return err
	}
	r.m.set("snap.bytes_per_node", float64(size)/steadyNodes)
	r.stat("snapshot_bytes", size)
	r.op(round())
	next := roundBytes(sys.Engine().Meter(), steadyWarmup)
	r.stat("check_round_bytes", protoMap(sys.Engine().Meter(), next))
	r.setMeterLayers(sys.Engine().Meter(), next, 1)
	r.m.set("sosf.event_bytes_per_round", 0)
	r.setServeIdle()
	heapInUse()

	// Timed rounds. A traced run spends the first half untraced and the
	// second half under the CPU profiler, and reports the slowdown.
	d := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		d /= 2
	}
	rounds, st, err := slices(steadySlices, d, func(d time.Duration) ([]float64, error) {
		rs, err := timeLoop(d, 1, round)
		r.opN(len(rs))
		return rs, err
	}, func() error {
		_, err := sample()
		return err
	})
	if err != nil {
		return err
	}
	r.m.set("snapshot_s", median(snaps))
	r.m.set("restore_s", median(restores))
	r.m.set("first_event_ms_p50", median(firsts))
	r.setRuntime(st, len(rounds))
	r.m.set("sim.allocs_per_round", float64(st.mallocs)/float64(len(rounds)))
	r.m.set("round_ms_p50", median(rounds))
	r.m.set("round_ms_p90", quantile(rounds, 0.9))
	r.m.set("play_s", playdemoHoriz*mean(rounds)/1000)
	r.m.set("jobs_per_s", float64(len(rounds))/st.wall.Seconds())
	r.m.set("job_ms_p50", median(rounds))
	r.m.set("job_ms_p95", quantile(rounds, 0.95))
	r.stat("timed_rounds", len(rounds))
	if r.trace {
		if err := r.tracedHalf(d, 3, round, median(rounds)); err != nil {
			return err
		}
	}
	r.m.set("peak_rss_mb", peakRSSMB())
	return nil
}
