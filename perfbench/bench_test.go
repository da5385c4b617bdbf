package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.9, 4.6}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("quantile reordered its input: %v", xs)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{150, 0.9, true}, // play-churn-2k: 15 rounds beyond p90
		{100, 0.9, true},
		{99, 0.9, false},
		{200, 0.95, true},
		{199, 0.95, false},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.9, false},
	} {
		v, err := tail(seq(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("tail(%d samples, p%g): err = %v, want ok=%v", c.n, 100*c.q, err, c.ok)
		}
		if err == nil && v != quantile(seq(c.n), c.q) {
			t.Errorf("tail(%d samples, p%g) = %v, want the quantile", c.n, 100*c.q, v)
		}
	}
}

func TestMetricNames(t *testing.T) {
	for _, d := range append(append([]decl(nil), endToEnd...), perLayer()...) {
		if !metricName.MatchString(d.name) {
			t.Errorf("declared metric %q is not a valid name", d.name)
		}
	}
	for _, bad := range []string{"", "-lead", ".lead", "has space", "slash/name", "é", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q was accepted", bad)
		}
	}
	ms := newMetrics()
	ms.set("setup_s", 1.5)
	if _, err := ms.selectDeclared(endToEnd[:1]); err != nil {
		t.Errorf("declared metric rejected: %v", err)
	}
	ms.set("no_such_metric", 1)
	if _, err := ms.selectDeclared(endToEnd[:1]); err == nil {
		t.Error("an undeclared metric name was accepted")
	}
	ms = newMetrics()
	ms.set("setup_s", math.NaN())
	if _, err := ms.selectDeclared(endToEnd[:1]); err == nil {
		t.Error("a NaN value was accepted")
	}
	if _, err := newMetrics().selectDeclared(endToEnd[:1]); err == nil {
		t.Error("a missing metric was accepted")
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	asEntries := func(ds []decl) []entry {
		var out []entry
		for _, d := range ds {
			out = append(out, entry{d.name, d.unit})
		}
		return out
	}
	if want := asEntries(endToEnd); !reflect.DeepEqual(b.EndToEnd, want) {
		t.Errorf("BENCHMARK.json end_to_end = %v, want %v", b.EndToEnd, want)
	}
	if want := asEntries(perLayer()); !reflect.DeepEqual(b.PerLayer, want) {
		t.Errorf("BENCHMARK.json per_layer = %v, want %v", b.PerLayer, want)
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which perfbench does not run", w.Name)
		}
	}
}

// protobuf encoding helpers for synthetic profiles.
func pbKey(num, wire int) []byte { return binary.AppendUvarint(nil, uint64(num<<3|wire)) }

func pbVarint(num int, v uint64) []byte {
	return append(pbKey(num, 0), binary.AppendUvarint(nil, v)...)
}

func pbBytes(num int, b []byte) []byte {
	out := append(pbKey(num, 2), binary.AppendUvarint(nil, uint64(len(b)))...)
	return append(out, b...)
}

func pbPacked(num int, vs ...uint64) []byte {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return pbBytes(num, body)
}

// syntheticProfile encodes samples whose stacks are lists of locations,
// each location a list of function names innermost first (inline frames).
func syntheticProfile(samples [][][]string, weights []uint64) []byte {
	var out []byte
	out = append(out, pbBytes(6, nil)...) // string 0 is ""
	strs := map[string]uint64{"": 0}
	funcs := map[string]uint64{}
	intern := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		if _, ok := strs[name]; !ok {
			strs[name] = uint64(len(strs))
			out = append(out, pbBytes(6, []byte(name))...)
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		out = append(out, pbBytes(5, append(pbVarint(1, id), pbVarint(2, strs[name])...))...)
		return id
	}
	nextLoc := uint64(1)
	for i, stack := range samples {
		var locs []uint64
		for _, frames := range stack {
			loc := pbVarint(1, nextLoc)
			for _, fn := range frames {
				loc = append(loc, pbBytes(4, pbVarint(1, intern(fn)))...)
			}
			out = append(out, pbBytes(4, loc)...)
			locs = append(locs, nextLoc)
			nextLoc++
		}
		sample := append(pbPacked(1, locs...), pbPacked(2, weights[i], weights[i]*1e7)...)
		out = append(out, pbBytes(2, sample)...)
	}
	return out
}

func TestAttributeSyntheticProfile(t *testing.T) {
	const (
		dense  = "sosf/internal/core.(*Allocator).Dense"
		rank   = "sosf/internal/core.coreRanker.Rank"
		less   = "sosf/internal/vicinity.rankLess"
		sortBy = "sosf/internal/vicinity.sortByRank"
		plan   = "sosf/internal/vicinity.(*Protocol).Plan"
		round  = "sosf/internal/sim.(*Engine).RunRound"
	)
	samples := [][][]string{
		// Inlined Dense inside Rank, called from the sort: the innermost
		// matching frame is Dense.
		{{dense, rank}, {less}, {sortBy}, {plan}, {round}},
		// Unmatched leaf under the sort: charged to the sort.
		{{"runtime.memmove"}, {sortBy}, {plan}, {round}},
		// Plan's own work.
		{{plan}, {round}},
		// No layer frame at all.
		{{"runtime.gcBgMarkWorker"}},
		// A handler frame matches serve.sse before the generic HTTP rule.
		{{"bufio.(*Writer).Flush"}, {"sosf/internal/serve.(*Server).handleEvents"}, {"net/http.(*conn).serve"}},
		{{"encoding/json.(*Encoder).Encode"}, {"sosf/internal/serve.(*Server).handleSubmit"}, {"net/http.(*conn).serve"}},
	}
	weights := []uint64{4, 2, 1, 1, 1, 1}
	p, err := parseProfile(syntheticProfile(samples, weights))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.samples(); got != 10 {
		t.Fatalf("samples = %d, want 10", got)
	}
	got := p.attribute(layerRules, otherShare)
	want := map[string]float64{
		"core.dense_cpu_share":    0.4,
		"vicinity.sort_cpu_share": 0.2,
		"vicinity.plan_cpu_share": 0.1,
		otherShare:                0.1,
		"serve.sse_cpu_share":     0.1,
		"serve.http_cpu_share":    0.1,
	}
	var sum float64
	for name, v := range got {
		sum += v
		if math.Abs(v-want[name]) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, v, want[name])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(got) != len(layerRules)+1 {
		t.Errorf("attribute reported %d metrics, want every rule plus other (%d)", len(got), len(layerRules)+1)
	}
}

func TestParseProfileRejectsTruncation(t *testing.T) {
	data := syntheticProfile([][][]string{{{"f"}}}, []uint64{1})
	if _, err := parseProfile(data[:len(data)-1]); err == nil {
		t.Error("a truncated profile was accepted")
	}
}

//go:noinline
func spin(d time.Duration) (x uint64) {
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1
		}
	}
	return x
}

// The decoder reads what runtime/pprof writes.
func TestParseRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.samples() == 0 {
		t.Skip("no CPU samples collected")
	}
	shares := p.attribute([]layerRule{{"spin", []string{"main.spin", "sosf/perfbench.spin"}}}, otherShare)
	if shares["spin"] < 0.5 {
		t.Errorf("spin share = %v of %d samples, want most of them", shares["spin"], p.samples())
	}
}
