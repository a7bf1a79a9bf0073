package main

import "encoding/json"

// runSeconds is the default length of a workload's timed window, and the
// run_seconds of BENCHMARK.json.
const runSeconds = 12

// coldRateRPS is the arrival rate of serve-cold's open loop (traced run):
// about an eighth of the closed-loop capacity of the cold mix on two
// connections, measured once on the sandbox when the benchmark was written
// (780–880 searches/s over three seeds), and pinned — an open loop whose rate
// is re-calibrated per run cannot show a regression. Half the capacity, the
// usual choice, is not usable here: generator and server share two cores, so
// at 400/s the latency from due time was a queueing lottery (quartile spread
// over ten seeds 36 % for p95; at 250/s still ~40 %, and one slow spell of
// the host turned a 3 ms median into 600 ms).
const coldRateRPS = 100

// workloadDef is one BENCHMARK.json workload entry.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"fig5-full", "The paper's Figure 5 in process: 44 queries x ValidRTF/MaxMatch, unranked and unlimited, so prune/materialize does the work and the serving layers none."},
	{"serve-hot", "Live xkserver over the mmap store, 2 connections, Zipf over 256 requests that fit the cache: httpapi, service and admission do the work, the pipeline none."},
	{"serve-cold", "Same server fresh per run, 2 connections over 3990 distinct SLCA top-K/page/stream requests (4x the cache): every op misses and the pipeline runs, pruning small."},
	{"serve-write", "xkserver -file with writes: one tail append per eight cold reads, a connection each, so delta segments, compaction and invalidation are on the path."},
}

func workloadNames() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.Name
	}
	return out
}

// metricDef is one catalogue entry. Bound applies to end-to-end metrics
// only: the share of the parent's median by which the metric may worsen
// before a change is a regression. Moves says which end-to-end metric a
// layer metric is expected to move, and where (README.md prints it).
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

// endToEnd is what a caller of the system sees; every workload reports all
// of it. Bounds come from NOISE.md: max(10 %, 2 x the widest quartile spread
// any workload showed over ten seeds), capped at the contract's 25 %.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "search_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.10},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.12},
}

// perLayer is one entry per thing a layer does that an optimisation could
// move. A value of 0 means the layer is not on that workload's path.
var perLayer = []metricDef{
	// End-to-end figures that exist on one workload only, or whose run-to-run
	// spread is too wide to gate on (see NOISE.md); reported, not bounded.
	{Name: "search_p95_ms", Unit: "ms", Better: "lower", Moves: "the tail; demoted from the gated set, its quartile spread over ten seeds was 12-40 % (NOISE.md)"},
	{Name: "search_p99_ms", Unit: "ms", Better: "lower", Moves: "diagnostic tail; fewer than 10 samples beyond it except on serve-hot"},
	{Name: "first_fragment_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-cold: due time to first NDJSON line of a stream=1 request"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Moves: "serve-write: due time to /append 200"},
	{Name: "append_p95_ms", Unit: "ms", Better: "lower", Moves: "serve-write: due time to /append 200"},

	{Name: "query.parse_us", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-hot (only place it is a visible share); flat elsewhere"},

	{Name: "postings.decode_ns_per_id", Unit: "ns", Better: "lower", Moves: "search_p95_ms, cpu_ms_per_op on serve-cold (first-touch decode); flat elsewhere"},
	{Name: "postings.bytes_per_id", Unit: "B", Better: "lower", Moves: "peak_rss_mb, setup_s on serve-hot/serve-cold"},
	{Name: "postings.iter_ns_per_id", Unit: "ns", Better: "lower", Moves: "nothing today (iterator is off the query path): direction-3 decision input"},
	{Name: "postings.seek_ns", Unit: "ns", Better: "lower", Moves: "nothing today: direction-3 decision input"},

	{Name: "index.lookup_us", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-cold"},
	{Name: "index.lists_decoded", Unit: "count", Better: "lower", Moves: "peak_rss_mb on serve-cold (decoded lists are immortal)"},
	{Name: "index.build_ms", Unit: "ms", Better: "lower", Moves: "setup_s on fig5-full, serve-write"},

	{Name: "delta.lookup_us_seg0", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-write right after a compaction"},
	{Name: "delta.lookup_us_seg64", Unit: "us", Better: "lower", Moves: "search_p50_ms, search_p95_ms, alloc_kb_per_op on serve-write between compactions"},
	{Name: "delta.append_ms", Unit: "ms", Better: "lower", Moves: "append_p50_ms on serve-write"},
	{Name: "delta.fold_ms", Unit: "ms", Better: "lower", Moves: "append_p95_ms, search_p95_ms on serve-write (compaction holds the write lock)"},
	{Name: "delta.segments_peak", Unit: "count", Better: "lower", Moves: "search_p95_ms on serve-write"},
	{Name: "delta.compactions", Unit: "count", Better: "higher", Moves: "explains delta.segments_peak"},

	{Name: "planner.decide_us", Unit: "us", Better: "lower", Moves: "negligible time everywhere"},
	{Name: "planner.scan_share", Unit: "ratio", Better: "higher", Moves: "a changed share explains a serve-cold shift (exact count)"},

	{Name: "lca.elca_ns_per_event", Unit: "ns", Better: "lower", Moves: "search_p50_ms, cpu_ms_per_op on serve-cold (dominant), fig5-full (minor); flat on serve-hot"},
	{Name: "lca.slca_indexed_us", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-cold"},
	{Name: "lca.slca_scan_ns_per_event", Unit: "ns", Better: "lower", Moves: "search_p50_ms on serve-cold"},
	{Name: "lca.events_per_op", Unit: "count", Better: "lower", Moves: "exact count: same inputs, same value"},

	{Name: "rtf.build_ns_per_event", Unit: "ns", Better: "lower", Moves: "as lca.*"},
	{Name: "rtf.scored_ns_per_event", Unit: "ns", Better: "lower", Moves: "search_p50_ms on serve-cold (ranked top-K shapes)"},
	{Name: "rtf.roots_per_op", Unit: "count", Better: "lower", Moves: "exact count"},

	{Name: "exec.candidates_us", Unit: "us", Better: "lower", Moves: "search_p50_ms, first_fragment_p50_ms on serve-cold"},
	{Name: "exec.select_us", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-cold"},
	{Name: "exec.topk_ns_per_offer", Unit: "ns", Better: "lower", Moves: "search_p50_ms on serve-cold ranked shapes"},

	{Name: "prune.build_us_per_fragment", Unit: "us", Better: "lower", Moves: "search_p50_ms, throughput_ops_s, allocs_per_op on fig5-full (dominant); small on serve-cold; flat on serve-hot"},
	{Name: "prune.validrtf_us_per_fragment", Unit: "us", Better: "lower", Moves: "as prune.build"},
	{Name: "prune.maxmatch_us_per_fragment", Unit: "us", Better: "lower", Moves: "as prune.build (fig5-full only)"},
	{Name: "prune.visited_per_fragment", Unit: "count", Better: "lower", Moves: "exact count"},
	{Name: "prune.kept_share", Unit: "ratio", Better: "higher", Moves: "exact count: kept / visited nodes"},

	{Name: "xks.stage_plan_us", Unit: "us", Better: "lower", Moves: "Engine.Search's own Stats.Stages, per op; all fig5-full latency metrics"},
	{Name: "xks.stage_candidates_us", Unit: "us", Better: "lower", Moves: "as above"},
	{Name: "xks.stage_select_us", Unit: "us", Better: "lower", Moves: "as above"},
	{Name: "xks.stage_materialize_us", Unit: "us", Better: "lower", Moves: "as above; the largest on fig5-full"},
	{Name: "xks.assemble_us_per_fragment", Unit: "us", Better: "lower", Moves: "search_p50_ms, allocs_per_op on fig5-full (materialize minus prune)"},
	{Name: "xks.render_xml_us_per_fragment", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-cold, serve-write"},
	{Name: "xks.render_kb_per_fragment", Unit: "KB", Better: "lower", Moves: "alloc_kb_per_op on the serve workloads"},
	{Name: "xks.validrtf_over_maxmatch", Unit: "ratio", Better: "lower", Moves: "the paper's parity claim (Figure 5); diagnostic"},

	{Name: "service.hit_us", Unit: "us", Better: "lower", Moves: "search_p50_ms, throughput_ops_s on serve-hot"},
	{Name: "service.miss_overhead_us", Unit: "us", Better: "lower", Moves: "search_p50_ms on serve-cold (Service.Search minus the engine call)"},
	{Name: "service.hit_rate", Unit: "ratio", Better: "higher", Moves: "must stay near 1 on serve-hot, near 0 on serve-cold"},
	{Name: "service.collapsed", Unit: "count", Better: "lower", Moves: "explains a serve-hot shift"},
	{Name: "service.cache_entries", Unit: "count", Better: "lower", Moves: "peak_rss_mb on serve-hot"},

	{Name: "httpapi.hit_roundtrip_us", Unit: "us", Better: "lower", Moves: "search_p50_ms, cpu_ms_per_op, alloc_kb_per_op on serve-hot"},
	{Name: "httpapi.encode_us_per_kb", Unit: "us", Better: "lower", Moves: "search_p50_ms, cpu_ms_per_op on serve-hot"},
	{Name: "httpapi.response_kb_per_op", Unit: "KB", Better: "lower", Moves: "exact for a fixed request sample"},
	{Name: "httpapi.stream_first_us", Unit: "us", Better: "lower", Moves: "first_fragment_p50_ms on serve-cold"},

	{Name: "admission.acquire_ns", Unit: "ns", Better: "lower", Moves: "search_p50_ms on serve-hot; should be negligible"},
	{Name: "admission.queued_share", Unit: "ratio", Better: "lower", Moves: "~0 at two connections"},
	{Name: "admission.shed_share", Unit: "ratio", Better: "lower", Moves: "non-zero explains failed operations"},

	{Name: "store.shred_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve-hot, serve-cold"},
	{Name: "store.save_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve-hot, serve-cold"},
	{Name: "store.open_mmap_ms", Unit: "ms", Better: "lower", Moves: "setup_s on serve-hot, serve-cold"},
	{Name: "store.open_heap_ms", Unit: "ms", Better: "lower", Moves: "nothing the workloads use (-mmap on); the PR 9 comparison"},
	{Name: "store.file_bytes_per_xml_byte", Unit: "ratio", Better: "lower", Moves: "bytes stored per byte of user data"},
	{Name: "store.mapped_mb", Unit: "MB", Better: "lower", Moves: "peak_rss_mb on serve-hot, serve-cold"},
	{Name: "store.label_at_ns", Unit: "ns", Better: "lower", Moves: "prune.* on store-backed engines, so search_p50_ms on serve-cold; flat on fig5-full"},
	{Name: "store.content_at_ns", Unit: "ns", Better: "lower", Moves: "as store.label_at_ns"},

	{Name: "xmltree.parse_ms", Unit: "ms", Better: "lower", Moves: "setup_s on fig5-full, serve-write"},

	{Name: "xkserver.stage_share_candidates", Unit: "ratio", Better: "lower", Moves: "bounds what a candidate-stage win can save on this workload"},
	{Name: "xkserver.stage_share_materialize", Unit: "ratio", Better: "lower", Moves: "bounds what a prune/render win can save on this workload"},
	{Name: "xkserver.request_ms_mean", Unit: "ms", Better: "lower", Moves: "the server's own view of search_p50_ms"},
	{Name: "xkserver.gc_count", Unit: "count", Better: "lower", Moves: "search_p95_ms on all serve workloads"},
	{Name: "xkserver.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "search_p95_ms; prime suspect for the serve-write tail"},
	{Name: "xkserver.heap_mb_end", Unit: "MB", Better: "lower", Moves: "peak_rss_mb"},

	{Name: "share.candidates", Unit: "ratio", Better: "lower", Moves: "traced replay: query+index+postings+delta+planner+lca+rtf+exec self time / op time"},
	{Name: "share.materialize", Unit: "ratio", Better: "lower", Moves: "traced replay: prune+xks self time / op time"},
	{Name: "share.serving", Unit: "ratio", Better: "lower", Moves: "traced replay: httpapi+service+admission self time / op time"},
	{Name: "share.delta", Unit: "ratio", Better: "lower", Moves: "traced replay: delta self time / op time; non-zero on serve-write only"},

	{Name: "bench.lateness_p99_ms", Unit: "ms", Better: "lower", Moves: "the generator's own honesty: how late it sent once a connection was free"},
	{Name: "bench.late_share", Unit: "ratio", Better: "lower", Moves: "share of open-loop sends more than 1 ms late"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "replay with spans recorded vs without"},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: "lower", Moves: "op time no layer span covers; the replay is trusted below 0.10"},
}

// benchmarkJSON renders the contract file from the catalogue, so the two
// cannot disagree (catalog_test.go compares the committed file with it).
func benchmarkJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, _ := json.MarshalIndent(doc, "", "  ")
	return append(b, '\n')
}
