package main

// The metric catalogue and the profile-to-layer table. BENCHMARK.json lists
// the same names; TestCatalogueMatchesBenchmarkJSON keeps the two in step.

// decl declares one reported metric.
type decl struct {
	name, unit string
}

// endToEnd are the untraced metrics every workload reports (see README.md
// for what each means on each workload).
var endToEnd = []decl{
	{"setup_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"play_s", "s"},
	{"bytes_per_node", "B/node"},
	{"peak_rss_mb", "MB"},
	{"snapshot_s", "s"},
	{"restore_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p95", "ms"},
	{"first_event_ms_p50", "ms"},
}

// Units of the per-layer metrics.
const (
	share      = "fraction"
	bytesRound = "B/round"
)

// layerRules is the profile attribution table. A CPU sample is charged to
// the innermost frame whose function name starts with one of a rule's
// prefixes; within one frame the first matching rule wins, so the serve
// rules that name single handlers precede the generic HTTP rule.
var layerRules = []layerRule{
	{"vicinity.sort_cpu_share", []string{
		"sosf/internal/vicinity.sortByRank",
		"sosf/internal/vicinity.rankLess",
	}},
	{"vicinity.plan_cpu_share", []string{"sosf/internal/vicinity.(*Protocol).Plan"}},
	{"vicinity.refresh_cpu_share", []string{"sosf/internal/vicinity.(*Protocol).Refresh"}},
	{"vicinity.absorb_cpu_share", []string{"sosf/internal/vicinity.(*Protocol).Absorb"}},
	{"core.rank_uo1_cpu_share", []string{"sosf/internal/core.uo1Ranker."}},
	{"core.rank_core_cpu_share", []string{"sosf/internal/core.coreRanker."}},
	{"core.dense_cpu_share", []string{"sosf/internal/core.(*Allocator).Dense"}},
	{"core.uo2_cpu_share", []string{"sosf/internal/core.(*UO2)."}},
	{"core.ports_cpu_share", []string{
		"sosf/internal/core.(*PortSelect).",
		"sosf/internal/core.(*PortConnect).",
		"sosf/internal/core.mergeRecords",
		"sosf/internal/core.sameCompContact",
		"sosf/internal/core.adoptBelief",
	}},
	{"core.oracle_cpu_share", []string{
		"sosf/internal/core.(*Oracle).",
		"sosf/internal/core.(*Tracker).",
		"sosf/internal/core.(*memberSorter).",
	}},
	{"core.mutation_cpu_share", []string{
		"sosf/internal/core.(*Allocator).FlushRanks",
		"sosf/internal/core.(*Allocator).MaybeHeal",
		"sosf/internal/core.(*Allocator).reDensify",
		"sosf/internal/core.(*Allocator).refreshRanksComp",
		"sosf/internal/core.(*Allocator).Reconfigure",
		"sosf/internal/core.(*Allocator).AssignJoin",
		"sosf/internal/core.(*Allocator).NoteLeave",
		"sosf/internal/core.(*System).Kill",
		"sosf/internal/core.(*System).AddNodes",
		"sosf/internal/core.(*System).Reconfigure",
		"sosf/internal/core.(*System).initJoin",
	}},
	{"core.build_cpu_share", []string{
		"sosf/internal/core.NewSystem",
		"sosf/internal/core.RestoreSystem",
		"sosf.New",
	}},
	{"view.merger_cpu_share", []string{
		"sosf/internal/view.(*Merger).",
		"sosf/internal/view.MergeInto",
		"sosf/internal/view.MergeBuffers",
		"sosf/internal/view.(*View).Merge",
	}},
	{"view.sample_cpu_share", []string{
		"sosf/internal/view.SampleInto",
		"sosf/internal/view.(*View).RandomSample",
	}},
	{"peersampling.cpu_share", []string{"sosf/internal/peersampling."}},
	{"sim.deliver_cpu_share", []string{
		"sosf/internal/sim.(*Engine).deliver",
		"sosf/internal/sim.(*Inbox).",
	}},
	{"dsl.cpu_share", []string{"sosf/internal/dsl."}},
	{"scenario.cpu_share", []string{"sosf/internal/scenario."}},
	{"sosf.emit_cpu_share", []string{
		"sosf.(*System).emit",
		"sosf.JSONLSink",
	}},
	{"serve.sse_cpu_share", []string{
		"sosf/internal/serve.(*Server).handleEvents",
		"sosf/internal/serve.(*follower).",
		"sosf/internal/serve.(*spool).",
	}},
	{"serve.stats_cpu_share", []string{
		"sosf/internal/serve.(*Registry).",
		"sosf/internal/serve.(*Server).noteRound",
		"sosf/internal/serve.(*Job).noteHeals",
		"sosf/internal/serve.(*Server).handleMetrics",
	}},
	{"serve.http_cpu_share", []string{
		"sosf/internal/serve.(*Server).handle",
		"sosf/internal/serve.writeJSON",
		"net/http.(*conn).",
		"net/http.(*response).",
		"net/http.(*chunkWriter).",
		"net/http.serverHandler.",
		"net/http.(*ServeMux).",
	}},
}

// otherShare takes the samples no rule matches: engine scheduling, the
// benchmark's own client, garbage collection.
const otherShare = "other.cpu_share"

// exactLayer are the per-layer metrics that are not CPU shares: meter
// counts, byte lengths, client-side spans and runtime statistics.
var exactLayer = []decl{
	{"vicinity.uo1_bytes_per_round", bytesRound},
	{"vicinity.core_bytes_per_round", bytesRound},
	{"core.uo2_bytes_per_round", bytesRound},
	{"core.ports_bytes_per_round", bytesRound},
	{"peersampling.bytes_per_round", bytesRound},
	{"sim.allocs_per_round", "allocs/round"},
	{"snap.bytes_per_node", "B/node"},
	{"dsl.parse_ms", "ms"},
	{"sosf.event_bytes_per_round", bytesRound},
	{"serve.submit_ms_p50", "ms"},
	{"serve.first_frame_ms_p50", "ms"},
	{"serve.replay_ms_p50", "ms"},
	{"serve.delete_ms_p50", "ms"},
	{"serve.spool_bytes_per_job", "B/job"},
	{"runtime.gc_cpu_fraction", share},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"runtime.gc_pauses", "1/op"},
	{"trace.overhead_frac", share},
}

// perLayer is every traced metric: the CPU shares, other, and exactLayer.
func perLayer() []decl {
	var out []decl
	for _, r := range layerRules {
		out = append(out, decl{r.metric, share})
	}
	out = append(out, decl{otherShare, share})
	return append(out, exactLayer...)
}

func unitOf(ds []decl, name string) string {
	for _, d := range ds {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}
