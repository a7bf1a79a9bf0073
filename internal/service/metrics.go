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
// keeps — the request latency and the per-stage breakdowns — and the
// Prometheus exposition (WritePrometheus) is the one surface that reads
// them: latency quantiles are histogram_quantile over its buckets.
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
	sum     atomic.Uint64 // microseconds
	buckets [numBuckets]atomic.Uint64
}

// observe records one duration.
func (h *histogram) observe(d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
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
// hot path never takes a lock; a scrape (WritePrometheus) reads them
// lock-free and only approximately consistently across counters, which is
// fine for monitoring.
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
