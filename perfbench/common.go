package main

import (
	"bytes"
	"fmt"
	"time"

	"sosf/internal/dsl"
	"sosf/internal/sim"
)

// Helpers the workloads share: metric reporting from meters and spans, and
// the output checks.

// tracedHalf repeats op under the CPU profiler for d and reports the layer
// shares and the profiler's slowdown over the untraced median.
func (r *run) tracedHalf(d time.Duration, minN int, op func() error, untracedMedian float64) error {
	sec, err := beginSection(true)
	if err != nil {
		return err
	}
	traced, err := timeLoop(d, minN, op)
	r.opN(len(traced))
	st, serr := sec.end()
	if err != nil {
		return err
	}
	if serr != nil {
		return serr
	}
	r.setShares(st)
	r.m.set("trace.overhead_frac", median(traced)/untracedMedian-1)
	return nil
}

// opN records n operations that succeeded. A failed one ends the timed
// loop; its error travels up to main, which records it.
func (r *run) opN(n int) {
	for i := 0; i < n; i++ {
		r.op(nil)
	}
}

// parseRepeats is how many parses dsl.parse_ms is the median of.
const parseRepeats = 20

// measureParse reports dsl.parse_ms for the workload's source.
func (r *run) measureParse(src string) error {
	var times []float64
	for i := 0; i < parseRepeats; i++ {
		t0 := time.Now()
		if _, err := dsl.ParseTopology(src); err != nil {
			return err
		}
		times = append(times, ms(time.Since(t0)))
	}
	r.m.set("dsl.parse_ms", median(times))
	return nil
}

// setMeterLayers reports the per-protocol meter counts in bytes per round
// from per-protocol totals over rounds rounds.
func (r *run) setMeterLayers(m *sim.Meter, totals []int64, rounds int) {
	by := func(names ...string) float64 {
		var sum int64
		for _, n := range names {
			for p, have := range m.Names() {
				if have == n {
					sum += totals[p]
				}
			}
		}
		return float64(sum) / float64(rounds)
	}
	r.m.set("vicinity.uo1_bytes_per_round", by("uo1"))
	r.m.set("vicinity.core_bytes_per_round", by("core"))
	r.m.set("core.uo2_bytes_per_round", by("uo2"))
	r.m.set("core.ports_bytes_per_round", by("portselect", "portconnect"))
	r.m.set("peersampling.bytes_per_round", by("rps"))
}

// setServeIdle reports the serve client spans and spool size as zero on
// workloads that run no server.
func (r *run) setServeIdle() {
	for _, n := range []string{"serve.submit_ms_p50", "serve.first_frame_ms_p50",
		"serve.replay_ms_p50", "serve.delete_ms_p50", "serve.spool_bytes_per_job"} {
		r.m.set(n, 0)
	}
}

// roundBytes returns every protocol's bytes in completed round rd.
func roundBytes(m *sim.Meter, rd int) []int64 {
	out := make([]int64, len(m.Names()))
	for p := range out {
		out[p] = m.RoundTotal(rd, p)
	}
	return out
}

// sumBytes returns every protocol's bytes over all completed rounds.
func sumBytes(m *sim.Meter) []int64 {
	out := make([]int64, len(m.Names()))
	for p := range out {
		out[p] = m.Total(p)
	}
	return out
}

func protoMap(m *sim.Meter, v []int64) map[string]int64 {
	out := make(map[string]int64, len(v))
	for p, n := range m.Names() {
		out[n] = v[p]
	}
	return out
}

func equalBytes(what string, got, want []int64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d protocols metered, want %d", what, len(got), len(want))
	}
	for p := range got {
		if got[p] != want[p] {
			return fmt.Errorf("%s: protocol %d metered %d bytes, want %d", what, p, got[p], want[p])
		}
	}
	return nil
}

func sameBytes(what string, got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: %d bytes differ from the reference's %d", what, len(got), len(want))
	}
	return nil
}

// nonzeroRound checks that every protocol put bytes on the wire in round
// rd: a steady round in which a layer goes silent is a broken round.
func nonzeroRound(m *sim.Meter, rd int) error {
	for p, n := range m.Names() {
		if m.RoundTotal(rd, p) <= 0 {
			return fmt.Errorf("round %d: protocol %s metered no bytes", rd+1, n)
		}
	}
	return nil
}
