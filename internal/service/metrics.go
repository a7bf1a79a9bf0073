package service

import (
	"errors"
	"sync/atomic"
	"time"

	"xks"
)

// latencyBounds are the histogram bucket upper bounds in microseconds,
// roughly exponential from 50µs to 5s; a final implicit bucket catches
// everything slower. One bucket layout backs every histogram the service
// keeps — the request latency and the per-stage breakdowns — so the JSON
// snapshot and the Prometheus exposition read from the same atomics.
var latencyBounds = [...]uint64{
	50, 100, 250, 500,
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000,
}

const numBuckets = len(latencyBounds) + 1

// histogram is a lock-free latency histogram over latencyBounds. The same
// struct backs the request-latency histogram and the four per-stage
// histograms; observations are independent per-bucket atomics, so reads
// are only approximately consistent across buckets (fine for monitoring —
// the Prometheus writer derives count from the bucket sum so each scrape
// is self-consistent).
type histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // microseconds
	buckets [numBuckets]atomic.Uint64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	h.count.Add(1)
	h.sum.Add(uint64(us))
	i := 0
	for i < len(latencyBounds) && uint64(us) > latencyBounds[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// Stage indices of Metrics.stages; stageNames are the Prometheus label
// values, matching the span names the trace layer uses.
const (
	stagePlan = iota
	stageCandidates
	stageSelect
	stageMaterialize
	numStages
)

var stageNames = [numStages]string{"plan", "candidates", "select", "materialize"}

// Metrics holds the live server counters. All fields are atomics, so the
// hot path never takes a lock; Snapshot reads are lock-free and only
// approximately consistent across counters, which is fine for monitoring.
type Metrics struct {
	requests  atomic.Uint64
	errors    atomic.Uint64
	hits      atomic.Uint64
	misses    atomic.Uint64
	collapsed atomic.Uint64
	streamed  atomic.Uint64
	truncated atomic.Uint64
	// panics counts requests whose error wrapped xks.ErrInternal — a
	// recovered pipeline (or singleflight-leader) panic. A crash-free server
	// with a rising panic counter is the signal panic isolation is doing
	// its job and something underneath is broken.
	panics atomic.Uint64
	// partialResumes counts requests that resumed a truncated page from its
	// cached prefix instead of recomputing the fragments already assembled.
	partialResumes atomic.Uint64
	// encodes counts result pages the API layer encoded (ObserveEncode). A
	// cache hit served from its entry's retained bytes encodes nothing, so
	// hits rising while this stands still is the sign hits are served from
	// bytes.
	encodes atomic.Uint64

	latency histogram
	// stages breaks pipeline executions down by stage (indexed by the
	// stage constants). Only real executions observe here — cache hits and
	// collapsed joins never ran the stages, so they would dilute the
	// distributions with zeros.
	stages [numStages]histogram

	// storeOpen is the one-time cold-open observation a disk-backed server
	// records at startup (nil until SetStoreOpen): how long opening the
	// store file took, in which mode, and how its bytes are resident.
	storeOpen atomic.Pointer[StoreOpenInfo]
}

// StoreOpenInfo describes one store-file open: wall time, the resulting
// backing mode ("v3-mmap" or "v3-heap"), and the byte split
// between the read-only mapping (paged in on demand by the OS) and heap
// allocations.
type StoreOpenInfo struct {
	Seconds     float64
	Mode        string
	MappedBytes int64
	HeapBytes   int64
}

// SetStoreOpen records the store cold-open observation exposed on
// /metrics. Servers that build their engine from a tree or an in-memory
// store never call it, and the gauges stay absent.
func (m *Metrics) SetStoreOpen(info StoreOpenInfo) { m.storeOpen.Store(&info) }

// ObserveEncode counts one result page encoded by the API layer.
func (m *Metrics) ObserveEncode() { m.encodes.Add(1) }

// observe records one request latency in the histogram.
func (m *Metrics) observe(d time.Duration) { m.latency.observe(d) }

// observeError counts one failed request, classifying recovered panics
// (errors wrapping xks.ErrInternal) into their own counter.
func (m *Metrics) observeError(err error) {
	m.errors.Add(1)
	if errors.Is(err, xks.ErrInternal) {
		m.panics.Add(1)
	}
}

// observeStages records one pipeline execution's per-stage durations and
// its truncation outcome. Call only for executions that actually ran the
// pipeline (not cache hits or collapsed joins).
func (m *Metrics) observeStages(st xks.StageStats, truncated bool) {
	m.stages[stagePlan].observe(st.Plan)
	m.stages[stageCandidates].observe(st.Candidates)
	m.stages[stageSelect].observe(st.Select)
	m.stages[stageMaterialize].observe(st.Materialize)
	if truncated {
		m.truncated.Add(1)
	}
}

// Snapshot is a point-in-time JSON-friendly view of the metrics.
type Snapshot struct {
	Requests     uint64  `json:"requests"`
	Errors       uint64  `json:"errors"`
	CacheHits    uint64  `json:"cacheHits"`
	CacheMisses  uint64  `json:"cacheMisses"`
	CacheHitRate float64 `json:"cacheHitRate"`
	// Collapsed counts requests that joined an in-flight identical query
	// (singleflight) instead of executing the pipeline themselves.
	Collapsed uint64 `json:"collapsedRequests"`
	// Streamed counts requests served through the streaming path
	// (Service.Stream), whether they replayed a cached page or drove the
	// pipeline's lazy materialization directly.
	Streamed uint64 `json:"streamedRequests"`
	// Truncated counts pipeline executions cut short by a BestEffort
	// deadline (partial or empty page served with Results.Truncated set).
	Truncated uint64 `json:"truncatedResults"`
	// PanicsRecovered counts requests that failed with a recovered panic
	// (xks.ErrInternal) instead of crashing the process.
	PanicsRecovered uint64 `json:"panicsRecovered"`
	// PartialResumes counts requests that resumed a truncated page from its
	// cached prefix.
	PartialResumes uint64 `json:"partialPageResumes"`
	// ResponseEncodes counts result pages the API layer encoded; cache hits
	// served from retained bytes do not add to it.
	ResponseEncodes uint64  `json:"responseEncodes"`
	AvgLatencyMS    float64 `json:"avgLatencyMs"`
	P50LatencyMS    float64 `json:"p50LatencyMs"`
	P95LatencyMS    float64 `json:"p95LatencyMs"`
	P99LatencyMS    float64 `json:"p99LatencyMs"`
}

// Snapshot derives the aggregate view, estimating the latency percentiles
// from the histogram by linear interpolation within the matched bucket.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Requests:        m.requests.Load(),
		Errors:          m.errors.Load(),
		CacheHits:       m.hits.Load(),
		CacheMisses:     m.misses.Load(),
		Collapsed:       m.collapsed.Load(),
		Streamed:        m.streamed.Load(),
		Truncated:       m.truncated.Load(),
		PanicsRecovered: m.panics.Load(),
		PartialResumes:  m.partialResumes.Load(),
		ResponseEncodes: m.encodes.Load(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	count := m.latency.count.Load()
	if count == 0 {
		return s
	}
	s.AvgLatencyMS = float64(m.latency.sum.Load()) / float64(count) / 1000.0
	var counts [numBuckets]uint64
	total := uint64(0)
	for i := range counts {
		counts[i] = m.latency.buckets[i].Load()
		total += counts[i]
	}
	s.P50LatencyMS = quantile(counts[:], total, 0.50)
	s.P95LatencyMS = quantile(counts[:], total, 0.95)
	s.P99LatencyMS = quantile(counts[:], total, 0.99)
	return s
}

// quantile estimates the q-th latency quantile in milliseconds from the
// bucket counts.
func quantile(counts []uint64, total uint64, q float64) float64 {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			lo := 0.0
			if i > 0 {
				lo = float64(latencyBounds[i-1])
			}
			hi := lo
			if i < len(latencyBounds) {
				hi = float64(latencyBounds[i])
			}
			frac := (rank - cum) / float64(c)
			return (lo + (hi-lo)*frac) / 1000.0
		}
		cum = next
	}
	return float64(latencyBounds[len(latencyBounds)-1]) / 1000.0
}
