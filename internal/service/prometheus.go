package service

import (
	"fmt"
	"io"
	"strconv"
)

// WritePrometheus writes the service's live metrics in the Prometheus text
// exposition format (version 0.0.4): the request/error/cache counters, the
// request-latency histogram, the per-stage pipeline histograms, and gauges
// for the cache and corpus. It is the service's one metrics surface: the
// average latency is the histogram's _sum over its _count, and p50/p95/p99
// are histogram_quantile over its buckets.
//
// Within one scrape each histogram is self-consistent — the _count and the
// +Inf bucket are both derived from the same bucket reads — but concurrent
// observations may land between families, which Prometheus tolerates.
func (sv *Service) WritePrometheus(w io.Writer) {
	m := &sv.metrics
	writeCounter(w, "xks_requests_total",
		"Search requests received (buffered and streamed).", m.requests.Load())
	writeCounter(w, "xks_request_errors_total",
		"Search requests that ended in an error.", m.errors.Load())
	writeCounter(w, "xks_cache_hits_total",
		"Requests served from the query-result cache.", m.hits.Load())
	writeCounter(w, "xks_cache_misses_total",
		"Cache lookups that missed.", m.misses.Load())
	writeCounter(w, "xks_collapsed_requests_total",
		"Requests that joined an identical in-flight execution (singleflight).", m.collapsed.Load())
	writeCounter(w, "xks_streamed_requests_total",
		"Requests served through the streaming (NDJSON) path.", m.streamed.Load())
	writeCounter(w, "xks_truncated_results_total",
		"Pipeline executions cut short by a best-effort deadline.", m.truncated.Load())
	writeCounter(w, "xks_panic_recovered_total",
		"Requests that failed with a recovered pipeline panic instead of crashing the process.", m.panics.Load())
	writeCounter(w, "xks_response_encodes_total",
		"Result pages encoded by the API layer (cache hits served from retained bytes encode nothing).", m.encodes.Load())

	writeHistogram(w, "xks_request_duration_seconds",
		"End-to-end request latency, including cache hits.", "", &m.latency)
	fmt.Fprintf(w, "# HELP xks_stage_duration_seconds Pipeline stage latency of real executions (cache hits and collapsed joins excluded).\n")
	fmt.Fprintf(w, "# TYPE xks_stage_duration_seconds histogram\n")
	for i := range m.stages {
		writeHistogramSeries(w, "xks_stage_duration_seconds",
			`stage="`+stageNames[i]+`"`, &m.stages[i])
	}

	if so := m.storeOpen.Load(); so != nil {
		fmt.Fprintf(w, "# HELP xks_store_open_seconds Wall time the startup store-file open took.\n")
		fmt.Fprintf(w, "# TYPE xks_store_open_seconds gauge\n")
		fmt.Fprintf(w, "xks_store_open_seconds{mode=%q} %s\n", so.Mode, formatFloat(so.Seconds))
		writeGauge(w, "xks_store_mapped_bytes",
			"Store bytes served through the read-only mmap (resident on demand via the OS page cache).",
			float64(so.MappedBytes))
		writeGauge(w, "xks_store_heap_bytes",
			"Store file bytes materialized on the Go heap at open.", float64(so.HeapBytes))
	}

	di := sv.backend.DeltaInfo()
	writeGauge(w, "xks_delta_segments",
		"Live write-side delta segments awaiting compaction, summed over documents.", float64(di.Segments))
	writeGauge(w, "xks_delta_postings",
		"Postings held in delta segments (not yet folded into the base index).", float64(di.Postings))
	writeGauge(w, "xks_delta_merged_lists",
		"Words the live merged-list overlays hold a complete base-plus-delta posting list for (0 right after a compaction).", float64(di.MergedLists))
	writeGauge(w, "xks_delta_merged_ids",
		"IDs in the live merged-list overlays, base prefixes included.", float64(di.MergedIDs))
	writeCounter(w, "xks_appends_total",
		"Appends published at the tail of a document.", uint64(di.Appends))
	fmt.Fprintf(w, "# HELP xks_append_duration_seconds Wall time of published appends, parse to publish.\n"+
		"# TYPE xks_append_duration_seconds summary\n"+
		"xks_append_duration_seconds_sum %s\nxks_append_duration_seconds_count %d\n",
		formatFloat(di.AppendSeconds), di.Appends)
	writeGauge(w, "xks_snapshots_pinned",
		"Snapshots currently pinned by in-flight queries, cursors being resolved, or scripted leaks.", float64(di.PinnedSnapshots))
	writeCounter(w, "xks_compactions_total",
		"Delta-to-base compactions completed.", uint64(di.Compactions))
	writeGauge(w, "xks_compaction_seconds",
		"Total wall time spent folding delta segments into base indexes.", di.CompactionSeconds)

	writeGauge(w, "xks_cache_entries",
		"Live entries in the query-result cache (complete buffered pages).", float64(sv.CacheLen()))
	writeGauge(w, "xks_cache_body_bytes",
		"Encoded response bytes retained by query-result cache entries.", float64(sv.CacheBodyBytes()))
	writeGauge(w, "xks_corpus_generation",
		"Data mutation generation of the corpus (changes on every append or document add).", float64(sv.Generation()))
	docs := sv.Documents()
	words, nodes := 0, 0
	for _, d := range docs {
		words += d.Words
		nodes += d.Nodes
	}
	writeGauge(w, "xks_corpus_documents", "Searchable documents in the corpus.", float64(len(docs)))
	writeGauge(w, "xks_corpus_index_words", "Distinct indexed words, summed over documents.", float64(words))
	writeGauge(w, "xks_corpus_index_nodes", "Indexed element nodes, summed over documents.", float64(nodes))
}

func writeCounter(w io.Writer, name, help string, v uint64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
		name, help, name, name, formatFloat(v))
}

// writeHistogram writes one full histogram family (HELP/TYPE plus the
// series); labels is the extra label set ("" for none).
func writeHistogram(w io.Writer, name, help, labels string, h *histogram) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	writeHistogramSeries(w, name, labels, h)
}

// writeHistogramSeries writes the _bucket/_sum/_count series of one
// histogram under an optional extra label set. Buckets are read once and
// accumulated, and the _count is the +Inf cumulative from that same read,
// so every scrape satisfies the histogram invariants (cumulative buckets,
// _count == +Inf) even under concurrent observation.
func writeHistogramSeries(w io.Writer, name, labels string, h *histogram) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	cum := uint64(0)
	for i, bound := range latencyBounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%s\"} %d\n",
			name, labels, sep, formatFloat(float64(bound)/1e6), cum)
	}
	cum += h.buckets[numBuckets-1].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	sum := float64(h.sum.Load()) / 1e6
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(sum), name, cum)
		return
	}
	fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, formatFloat(sum), name, labels, cum)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
