package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"sosf"
	"sosf/internal/eval"
	"sosf/internal/serve"
)

// serve-jobs: an in-process `sos serve` on a loopback listener with two
// closed-loop clients submitting many small jobs — the per-job fixed costs
// (spec normalization, small-N build, spool, HTTP, stats) that the large
// workloads amortize away.
const (
	serveClients = 2
	serveSeeds   = 8 // job seeds cycle through this many values
	serveRings   = 4
	serveNodes   = 64
	serveRounds  = 20
	serveSetups  = 3
	// serveMinJobs keeps the timed section going past its deadline until
	// job_ms_p95 has tailFloor samples beyond it.
	serveMinJobs = 200
	// serveSlices splits the timed jobs; a batch of serveEvictReps
	// eviction samples comes before, between and after the slices.
	serveSlices    = 5
	serveEvictReps = 40
	workDir        = ".bench_build" // scratch space inside the checkout
)

// job holds the client-side spans of one completed job.
type job struct {
	submitMS, firstFrameMS, firstEventMS, jobMS, replayMS, deleteMS float64
}

// instance is one booted server with its listener and spool directory.
type instance struct {
	dir  string
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func boot() (*instance, error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.NewServer(serve.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	in := &instance{dir: dir, srv: srv, http: &http.Server{Handler: srv.Handler()},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { in.done <- in.http.Serve(ln) }()
	return in, nil
}

// close stops the listener, waits for in-flight requests and the serve
// goroutine, parks the jobs, and removes the spools.
func (in *instance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := in.http.Shutdown(ctx)
	if serr := <-in.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	in.srv.Close()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

// reference is the in-process event stream of one job seed.
type reference struct {
	seed   int64
	body   []byte // POST /jobs spec
	events []byte
	sys    *sosf.System
}

func references(benchSeed int64) ([]*reference, error) {
	src := eval.RingOfRingsDSL(serveRings)
	var refs []*reference
	for i := int64(0); i < serveSeeds; i++ {
		seed, rounds := benchSeed*serveSeeds+i, serveRounds
		body, err := json.Marshal(serve.JobSpec{Source: src, Nodes: serveNodes,
			Rounds: &rounds, Seed: &seed})
		if err != nil {
			return nil, err
		}
		sys, err := sosf.New(src, sosf.WithNodes(serveNodes), sosf.WithRunToEnd(),
			sosf.WithRounds(serveRounds), sosf.WithSeed(seed))
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		sys.Subscribe(sosf.JSONLSink(&buf))
		if _, err := sys.Step(max(sys.RoundBudget(), sys.ScenarioHorizon())); err != nil {
			return nil, err
		}
		refs = append(refs, &reference{seed: seed, body: body, events: buf.Bytes(), sys: sys})
	}
	return refs, nil
}

func serveJobs(r *run) error {
	if err := r.measureParse(eval.RingOfRingsDSL(serveRings)); err != nil {
		return err
	}
	var in *instance
	var refs []*reference
	var setups []float64
	var base uint64
	for i := 0; i < serveSetups; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return err
			}
		}
		refs = nil
		base = heapInUse()
		t0 := time.Now()
		var err error
		if in, err = boot(); err != nil {
			return err
		}
		if refs, err = references(r.seed); err != nil {
			in.close()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { r.op(in.close()) }()
	r.m.set("setup_s", median(setups))
	r.m.set("bytes_per_node", float64(heapInUse()-base)/(serveSeeds*serveNodes))
	r.referenceStats(refs)

	// The eviction path is sampled before, between and after slices of
	// the timed jobs, so it sees the same host as the jobs do.
	ev := &evictions{ref: refs[0]}
	if err := r.evict(ev); err != nil {
		return err
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()
	d := time.Duration(r.seconds * float64(time.Second))
	if r.trace {
		d /= 2
	}
	var jobs []job
	_, st, err := slices(serveSlices, d, func(d time.Duration) ([]float64, error) {
		jobs = append(jobs, r.drive(client, in.url, refs, d, serveMinJobs/serveSlices)...)
		return nil, nil
	}, func() error { return r.evict(ev) })
	if err != nil {
		return err
	}
	if err := r.evict(ev); err != nil {
		return err
	}
	r.m.set("snapshot_s", median(ev.snaps))
	r.m.set("restore_s", median(ev.restores))
	r.m.set("snap.bytes_per_node", float64(ev.size)/serveNodes)
	r.stat("snapshot_bytes", ev.size)
	if len(jobs) == 0 {
		return fmt.Errorf("no job completed in %v", d)
	}
	var jobMS, perRound, firsts, submits, frames, replays, deletes []float64
	for _, j := range jobs {
		jobMS = append(jobMS, j.jobMS)
		perRound = append(perRound, j.jobMS/serveRounds)
		firsts = append(firsts, j.firstEventMS)
		submits = append(submits, j.submitMS)
		frames = append(frames, j.firstFrameMS)
		replays = append(replays, j.replayMS)
		deletes = append(deletes, j.deleteMS)
	}
	p95, err := tail(jobMS, 0.95)
	if err != nil {
		return err
	}
	p90, err := tail(perRound, 0.9)
	if err != nil {
		return err
	}
	r.m.set("jobs_per_s", float64(len(jobs))/st.wall.Seconds())
	r.m.set("job_ms_p50", median(jobMS))
	r.m.set("job_ms_p95", p95)
	r.m.set("first_event_ms_p50", median(firsts))
	r.m.set("round_ms_p50", median(perRound))
	r.m.set("round_ms_p90", p90)
	r.m.set("play_s", median(jobMS)/1000)
	r.m.set("serve.submit_ms_p50", median(submits))
	r.m.set("serve.first_frame_ms_p50", median(frames))
	r.m.set("serve.replay_ms_p50", median(replays))
	r.m.set("serve.delete_ms_p50", median(deletes))
	r.setRuntime(st, len(jobs))
	r.m.set("sim.allocs_per_round", float64(st.mallocs)/float64(len(jobs)*serveRounds))
	r.stat("timed_jobs", len(jobs))

	if r.trace {
		sec, err := beginSection(true)
		if err != nil {
			return err
		}
		traced := r.drive(client, in.url, refs, d, serveMinJobs)
		st, err := sec.end()
		if err != nil {
			return err
		}
		if len(traced) == 0 {
			return fmt.Errorf("no traced job completed in %v", d)
		}
		var tracedMS []float64
		for _, j := range traced {
			tracedMS = append(tracedMS, j.jobMS)
		}
		r.setShares(st)
		r.m.set("trace.overhead_frac", median(tracedMS)/median(jobMS)-1)
	}
	r.m.set("peak_rss_mb", peakRSSMB())
	return nil
}

// referenceStats records the exact counts of the reference runs and the
// per-layer meter and event-byte metrics they imply.
func (r *run) referenceStats(refs []*reference) {
	var events, rounds int
	var totals []int64
	perSeed := map[string]any{}
	for _, ref := range refs {
		meter := ref.sys.Engine().Meter()
		t := sumBytes(meter)
		if totals == nil {
			totals = make([]int64, len(t))
		}
		for p := range t {
			totals[p] += t[p]
		}
		events += len(ref.events)
		rounds += meter.Rounds()
		conv := map[string]int{}
		for _, s := range ref.sys.Report().Subs {
			conv[s.Name] = s.ConvergedAt
		}
		perSeed[fmt.Sprint(ref.seed)] = map[string]any{
			"event_bytes": len(ref.events), "protocol_bytes": protoMap(meter, t), "converged_at": conv}
	}
	r.stat("references", perSeed)
	r.setMeterLayers(refs[0].sys.Engine().Meter(), totals, rounds)
	r.m.set("sosf.event_bytes_per_round", float64(events)/float64(rounds))
	r.m.set("serve.spool_bytes_per_job", float64(events)/float64(len(refs)))
}

// evictions accumulates eviction-path samples on one finished job's system.
type evictions struct {
	ref             *reference
	snaps, restores []float64
	size            int
}

// evict times serveEvictReps repetitions of the eviction path: snapshot to
// memory, then rebuild and restore. The restored system must snapshot to
// the same bytes.
func (r *run) evict(ev *evictions) error {
	src := eval.RingOfRingsDSL(serveRings)
	heapInUse()
	for i := 0; i < serveEvictReps; i++ {
		var buf bytes.Buffer
		t0 := time.Now()
		if err := ev.ref.sys.Snapshot(&buf); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		ev.snaps = append(ev.snaps, time.Since(t0).Seconds())
		ev.size = buf.Len()
		t0 = time.Now()
		restored, err := sosf.New(src, sosf.WithNodes(serveNodes), sosf.WithRunToEnd(),
			sosf.WithRounds(serveRounds), sosf.WithSeed(ev.ref.seed))
		if err == nil {
			err = restored.Restore(bytes.NewReader(buf.Bytes()))
		}
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
		ev.restores = append(ev.restores, time.Since(t0).Seconds())
		var again bytes.Buffer
		if err := restored.Snapshot(&again); err != nil {
			return fmt.Errorf("snapshot of restored system: %w", err)
		}
		r.op(sameBytes("restored job's snapshot", again.Bytes(), buf.Bytes()))
	}
	return nil
}

// drive runs serveClients closed-loop clients for d, and on until minJobs
// jobs were attempted, and returns the jobs that completed; every job is
// recorded as an operation.
func (r *run) drive(client *http.Client, url string, refs []*reference, d time.Duration, minJobs int) []job {
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	var jobs []job
	var errs []error
	more := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(errs) < minJobs || time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; more(); i += serveClients {
				j, err := runJob(client, url, refs[i%len(refs)])
				mu.Lock()
				errs = append(errs, err)
				if err == nil {
					jobs = append(jobs, j)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		r.op(err)
	}
	return jobs
}

// runJob submits one auto-started job, follows its event stream to the end,
// replays the finished stream, and deletes the job. Both streams must equal
// the in-process reference.
func runJob(client *http.Client, url string, ref *reference) (job, error) {
	var j job
	t0 := time.Now()
	resp, err := client.Post(url+"/jobs?start=1", "application/json", bytes.NewReader(ref.body))
	if err != nil {
		return j, err
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Error string `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return j, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusCreated || st.State == "failed" {
		return j, fmt.Errorf("submit: status %d, state %q: %s", resp.StatusCode, st.State, st.Error)
	}
	j.submitMS = ms(time.Since(t0))

	t1 := time.Now()
	live, firstFrame, err := readEvents(client, url+"/jobs/"+st.ID+"/events")
	if err != nil {
		return j, fmt.Errorf("job %s: %w", st.ID, err)
	}
	j.jobMS = ms(time.Since(t0))
	j.firstFrameMS = ms(firstFrame.Sub(t1))
	j.firstEventMS = ms(firstFrame.Sub(t0))
	if err := sameBytes(fmt.Sprintf("job %s live stream (seed %d)", st.ID, ref.seed), live, ref.events); err != nil {
		return j, err
	}

	t2 := time.Now()
	replay, _, err := readEvents(client, url+"/jobs/"+st.ID+"/events")
	if err != nil {
		return j, fmt.Errorf("job %s replay: %w", st.ID, err)
	}
	j.replayMS = ms(time.Since(t2))
	if err := sameBytes(fmt.Sprintf("job %s replayed stream (seed %d)", st.ID, ref.seed), replay, ref.events); err != nil {
		return j, err
	}

	t3 := time.Now()
	req, err := http.NewRequest(http.MethodDelete, url+"/jobs/"+st.ID, nil)
	if err != nil {
		return j, err
	}
	resp, err = client.Do(req)
	if err != nil {
		return j, fmt.Errorf("delete: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return j, fmt.Errorf("delete %s: status %d", st.ID, resp.StatusCode)
	}
	j.deleteMS = ms(time.Since(t3))
	return j, nil
}

// readEvents reads an SSE stream to its end event and returns the data
// frames as JSONL (each frame's payload plus a newline) and the arrival
// time of the first data frame.
func readEvents(client *http.Client, url string) ([]byte, time.Time, error) {
	var first time.Time
	resp, err := client.Get(url)
	if err != nil {
		return nil, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, first, fmt.Errorf("GET events: status %d", resp.StatusCode)
	}
	var out bytes.Buffer
	br := bufio.NewReader(resp.Body)
	event := ""
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, first, fmt.Errorf("stream closed without an end event: %w", err)
		}
		line = strings.TrimSuffix(line, "\n")
		switch {
		case line == "":
			event = ""
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			switch event {
			case "end":
				// Drain to EOF so the connection returns to the pool.
				io.Copy(io.Discard, br)
				return out.Bytes(), first, nil
			case "error":
				return nil, first, fmt.Errorf("stream error: %s", strings.TrimPrefix(line, "data: "))
			}
			if first.IsZero() {
				first = time.Now()
			}
			out.WriteString(strings.TrimPrefix(line, "data: "))
			out.WriteByte('\n')
		}
	}
}
