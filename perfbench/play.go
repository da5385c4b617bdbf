package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"sosf"
)

// play-churn-2k: the playdemo timeline (loss window, 30% blast, a
// reconfiguration splice, a component kill) at 2 000 nodes and two workers,
// through its whole horizon with a JSONL event sink in memory — what
// `sos play` and library users run.
const (
	playSource  = "testdata/playdemo.sos"
	playGolden  = "testdata/golden/playdemo.events.jsonl"
	playNodes   = 2000
	playWorkers = 2
	playSetups  = 9 // setup_s is the median of this many sosf.New calls
	playSnaps   = 5
)

// playRun is one timed play: sosf.New, then Step over the whole horizon.
type playRun struct {
	sys     *sosf.System
	events  []byte
	gaps    []float64 // ms between consecutive event callbacks (first from Step)
	newS    float64
	stepS   float64
	firstMS float64 // from the start of sosf.New to the first event
}

func playChurn(r *run) error {
	srcBytes, err := os.ReadFile(playSource)
	if err != nil {
		return err
	}
	src := string(srcBytes)
	if err := r.checkGolden(src); err != nil {
		return err
	}
	if err := r.measureParse(src); err != nil {
		return err
	}
	opts := []sosf.Option{sosf.WithNodes(playNodes), sosf.WithSeed(r.seed),
		sosf.WithWorkers(playWorkers), sosf.WithRunToEnd()}

	var setups []float64
	for i := 0; i < playSetups; i++ {
		t0 := time.Now()
		if _, err := sosf.New(src, opts...); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.m.set("setup_s", median(setups))
	base := heapInUse()

	var plays []*playRun
	play := func() error {
		p, err := playOnce(src, opts)
		if err != nil {
			return err
		}
		plays = append(plays, p)
		r.op(r.checkPlay(p, plays[0]))
		return nil
	}
	d := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		d /= 2
	}
	sec, err := beginSection(false)
	if err != nil {
		return err
	}
	if _, err := timeLoop(d, 1, play); err != nil {
		return err
	}
	st, err := sec.end()
	if err != nil {
		return err
	}
	var gaps, stepS, jobMS, firsts []float64
	rounds := 0
	for _, p := range plays {
		gaps = append(gaps, p.gaps...)
		stepS = append(stepS, p.stepS)
		jobMS = append(jobMS, 1000*(p.newS+p.stepS))
		firsts = append(firsts, p.firstMS)
		rounds += len(p.gaps)
	}
	p90, err := tail(gaps, 0.9)
	if err != nil {
		return err
	}
	r.m.set("round_ms_p50", median(gaps))
	r.m.set("round_ms_p90", p90)
	r.m.set("play_s", median(stepS))
	r.m.set("jobs_per_s", float64(len(plays))/st.wall.Seconds())
	r.m.set("job_ms_p50", median(jobMS))
	r.m.set("job_ms_p95", quantile(jobMS, 0.95))
	r.m.set("first_event_ms_p50", median(firsts))
	r.setRuntime(st, rounds)
	r.m.set("sim.allocs_per_round", float64(st.mallocs)/float64(rounds))

	last := plays[len(plays)-1]
	plays = nil
	sum := sha256.Sum256(last.events)
	meter := last.sys.Engine().Meter()
	totals := sumBytes(meter)
	r.setMeterLayers(meter, totals, meter.Rounds())
	r.m.set("sosf.event_bytes_per_round", float64(len(last.events))/float64(meter.Rounds()))
	r.setServeIdle()
	r.stat("events_sha256", hex.EncodeToString(sum[:]))
	r.stat("event_bytes", len(last.events))
	r.stat("rounds", meter.Rounds())
	r.stat("protocol_bytes", protoMap(meter, totals))
	rep := last.sys.Report()
	conv := map[string]int{}
	for _, s := range rep.Subs {
		conv[s.Name] = s.ConvergedAt
	}
	r.stat("converged_at", conv)
	r.stat("timed_plays", len(gaps)/meter.Rounds())
	last.events = nil
	r.m.set("bytes_per_node", float64(heapInUse()-base)/playNodes)

	// Snapshot the finished play and restore it into a fresh system; the
	// restored system must snapshot to the same bytes.
	var snaps, restores []float64
	var snapshot []byte
	for i := 0; i < playSnaps; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := last.sys.Snapshot(&buf); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		snaps = append(snaps, time.Since(t0).Seconds())
		snapshot = buf.Bytes()
		t0 = time.Now()
		restored, err := sosf.New(src, opts...)
		if err == nil {
			err = restored.Restore(bytes.NewReader(snapshot))
		}
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		restores = append(restores, time.Since(t0).Seconds())
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			return fmt.Errorf("snapshot of restored system: %w", err)
		}
		r.op(sameBytes("restored system's snapshot", again.Bytes(), snapshot))
	}
	r.m.set("snapshot_s", median(snaps))
	r.m.set("restore_s", median(restores))
	r.m.set("snap.bytes_per_node", float64(len(snapshot))/playNodes)
	r.stat("snapshot_bytes", len(snapshot))

	if r.trace {
		err := r.tracedHalf(d, 1, func() error {
			p, err := playOnce(src, opts)
			if err == nil {
				r.op(r.checkPlay(p, last))
			}
			return err
		}, median(jobMS))
		if err != nil {
			return err
		}
	}
	r.m.set("peak_rss_mb", peakRSSMB())
	return nil
}

// playOnce builds the system and plays the whole horizon, timing each event.
func playOnce(src string, opts []sosf.Option) (*playRun, error) {
	p := &playRun{}
	t0 := time.Now()
	sys, err := sosf.New(src, opts...)
	if err != nil {
		return nil, err
	}
	p.sys = sys
	p.newS = time.Since(t0).Seconds()
	var buf bytes.Buffer
	sink := sosf.JSONLSink(&buf)
	last := time.Now()
	sys.Subscribe(func(ev sosf.RoundEvent) {
		now := time.Now()
		if len(p.gaps) == 0 {
			p.firstMS = ms(now.Sub(t0))
		}
		p.gaps = append(p.gaps, ms(now.Sub(last)))
		last = now
		sink(ev)
	})
	budget := max(sys.RoundBudget(), sys.ScenarioHorizon())
	step := time.Now()
	last = step
	if _, err := sys.Step(budget); err != nil {
		return nil, err
	}
	p.stepS = time.Since(step).Seconds()
	p.events = buf.Bytes()
	if len(p.gaps) != budget {
		return nil, fmt.Errorf("play emitted %d events over a %d-round horizon", len(p.gaps), budget)
	}
	return p, nil
}

// checkPlay requires every sub-procedure to end at accuracy 1.0 and the
// event stream to match the run's first play of the same seed.
func (r *run) checkPlay(p, first *playRun) error {
	for name, acc := range p.sys.Accuracy() {
		if acc != 1 {
			return fmt.Errorf("play ended with %s accuracy %v, want 1", name, acc)
		}
	}
	return sameBytes("event stream of a repeated play", p.events, first.events)
}

// checkGolden replays playdemo at its own 200 nodes, serially and on two
// workers, against the committed event-stream fixture.
func (r *run) checkGolden(src string) error {
	want, err := os.ReadFile(playGolden)
	if err != nil {
		return err
	}
	for _, workers := range []int{1, 2} {
		sys, err := sosf.New(src, sosf.WithNodes(0), sosf.WithRounds(sosf.DefaultRounds),
			sosf.WithSeed(sosf.DefaultSeed), sosf.WithChurn(0), sosf.WithLoss(0),
			sosf.WithRunToEnd(), sosf.WithWorkers(workers))
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		sys.Subscribe(sosf.JSONLSink(&buf))
		if _, err := sys.Step(max(sosf.DefaultRounds, sys.ScenarioHorizon())); err != nil {
			return err
		}
		r.op(sameBytes(fmt.Sprintf("playdemo at workers=%d vs %s", workers, playGolden), buf.Bytes(), want))
	}
	return nil
}
