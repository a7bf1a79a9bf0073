package main

import (
	"bytes"
	"context"
	"sort"
	"time"

	"xks"
)

// replayItem is one operation of a traced run's sample, on its backing.
type replayItem struct {
	b *backing
	r searchReq
}

// fig5Layers is fig5-full's traced run: one pass of the mix replayed on the
// tree backings, plus the set-up halves and the top-K microbenchmark.
func fig5Layers(cfg *config, res *result, corpora []*corpus, engines []*xks.Engine, ops []fig5Op) error {
	ls := layerSet{}
	backings := make([]*backing, len(corpora))
	for i, e := range engines {
		b, err := treeBackingOf(e, nil)
		if err != nil {
			return err
		}
		backings[i] = b
	}
	items := make([]replayItem, len(ops))
	for i, o := range ops {
		r := searchReq{Query: o.Query}
		if o.Algo == xks.MaxMatch {
			r.Algo = "maxmatch"
		}
		items[i] = replayItem{backings[o.Corpus], r}
	}
	stages, err := replayRun(cfg, res.Workload, items, nil, false, ls)
	if err != nil {
		res.Verdict.note("traced replay: %v", err)
	}
	res.Verdict.Attempted += len(items)
	var valid, maxm time.Duration
	for i, st := range stages {
		total := st.Plan + st.Candidates + st.Select + st.Materialize
		if ops[i].Algo == xks.MaxMatch {
			maxm += total
		} else {
			valid += total
		}
	}
	ls["xks.validrtf_over_maxmatch"] = ratio(float64(valid), float64(maxm))
	// The tail of the mix, from the replay's reference searches. One pass is
	// the whole population of 88 searches, not a sample of it, so the
	// ten-samples-beyond rule does not apply.
	ref := make(latencies, len(stages))
	for i, st := range stages {
		ref[i] = st.Plan + st.Candidates + st.Select + st.Materialize
	}
	ls["search_p95_ms"] = quantile(ref.sortedMS(), 0.95)
	ls["search_p99_ms"] = quantile(ref.sortedMS(), 0.99)
	for _, c := range corpora {
		part := layerSet{}
		if err := treeBuildBench(c.XML, part); err != nil {
			return err
		}
		ls["xmltree.parse_ms"] += part["xmltree.parse_ms"]
		ls["index.build_ms"] += part["index.build_ms"]
	}
	topKBench(cfg.Seed, ls)
	res.Layers = ls
	return nil
}

// serveLayers is a serving workload's traced run: what the live half-window
// showed (the workload-specific latencies, the server's own counters, the
// generator's lateness), then the in-process replay on the matching
// backing and the layer microbenchmarks.
func serveLayers(s *served, res *result, reads []op, appends []appendOp, sc scraped, ws windowStats, pop []searchReq, draws []int) error {
	ls := layerSet{}
	hot := res.Workload == "serve-hot"
	write := res.Workload == "serve-write"

	all := make(latencies, len(reads))
	var first latencies
	var late []float64
	for i := range reads {
		o := &reads[i]
		all[i] = o.latency()
		if o.Req.Stream && o.First > 0 {
			first = append(first, o.First-o.Due)
		}
		if res.Workload == "serve-cold" { // the open loop
			late = append(late, msec(o.Sent-o.Ready))
		}
	}
	// A tail percentile is reported only with ten samples beyond it.
	ms, tail := all.sortedMS(), supportedTail(len(all))
	if tail >= 95 {
		ls["search_p95_ms"] = quantile(ms, 0.95)
	}
	if tail >= 99 {
		ls["search_p99_ms"] = quantile(ms, 0.99)
	}
	ls["first_fragment_p50_ms"] = quantile(first.sortedMS(), 0.50)
	if len(appends) > 0 {
		al := make(latencies, len(appends))
		for i, a := range appends {
			al[i] = a.Done - a.Due
		}
		ls["append_p50_ms"] = quantile(al.sortedMS(), 0.50)
		ls["append_p95_ms"] = quantile(al.sortedMS(), 0.95)
	}
	if len(late) > 0 {
		sort.Float64s(late)
		ls["bench.lateness_p99_ms"] = quantile(late, 0.99)
		over := sort.SearchFloat64s(late, 1.0)
		ls["bench.late_share"] = float64(len(late)-over) / float64(len(late))
	}

	ls["service.hit_rate"] = ratio(sc.delta("xks_cache_hits_total"), sc.delta("xks_requests_total"))
	ls["service.collapsed"] = sc.delta("xks_collapsed_requests_total")
	ls["service.cache_entries"] = sc.after["xks_cache_entries"]
	shed := sc.delta(`xks_admission_shed_total{reason="queue-full"}`) + sc.delta(`xks_admission_shed_total{reason="queue-timeout"}`) + sc.delta(`xks_admission_shed_total{reason="draining"}`)
	admitted := sc.delta("xks_admission_admitted_total")
	ls["admission.queued_share"] = ratio(sc.delta("xks_admission_queued_total"), admitted)
	ls["admission.shed_share"] = ratio(shed, admitted+shed)
	ls["delta.compactions"] = sc.delta("xks_compactions_total")
	ls["delta.segments_peak"] = sc.peak
	stage := func(name string) float64 { return sc.delta(`xks_stage_duration_seconds_sum{stage="` + name + `"}`) }
	stages := stage("plan") + stage("candidates") + stage("select") + stage("materialize")
	ls["xkserver.stage_share_candidates"] = ratio(stage("plan")+stage("candidates")+stage("select"), stages)
	ls["xkserver.stage_share_materialize"] = ratio(stage("materialize"), stages)
	ls["xkserver.request_ms_mean"] = 1000 * ratio(sc.delta("xks_request_duration_seconds_sum"), sc.delta("xks_request_duration_seconds_count"))
	ls["xkserver.gc_count"] = float64(ws.After.NumGC - ws.Before.NumGC)
	ls["xkserver.gc_pause_ms"] = msec(gcPauseBetween(ws.Before, ws.After))
	ls["xkserver.heap_mb_end"] = float64(ws.After.HeapAlloc) / (1 << 20)

	// The server is done; free its cores for the in-process half.
	s.srv.stop()
	s.srv = nil

	var b *backing
	var err error
	if write {
		e, lerr := xks.Load(bytes.NewReader(s.dblp.XML))
		if lerr != nil {
			return lerr
		}
		// 64 live segments: the live server carries 0 to ~100 between two
		// compactions (delta.segments_peak); 64 is the BENCH_PR10 figure.
		if b, err = treeBackingOf(e, appendDocs(s.dblp.W, s.cfg.Seed, 64)); err != nil {
			return err
		}
		if err := treeBuildBench(s.dblp.XML, ls); err != nil {
			return err
		}
		if err := deltaBench(s, ls); err != nil {
			return err
		}
	} else {
		if b, err = storeBacking(s.store); err != nil {
			return err
		}
		defer b.close()
		if err := storeBench(s.dir, s.dblp.XML, s.cfg.Seed, ls); err != nil {
			return err
		}
		words := make([]string, len(s.dblp.W.Keywords))
		for i, k := range s.dblp.W.Keywords {
			words[i] = k.Word
		}
		postingsBench(b.compressed, words, s.cfg.Seed, ls)
	}

	twin := newServingTwin(b.engine, 1024)
	var items []replayItem
	if hot {
		for _, d := range draws[:min(replaySample, len(draws))] {
			items = append(items, replayItem{b, pop[d]})
		}
		for _, it := range items { // warm the twin's cache, as the live warming pass does
			if _, _, err := twin.svc.Search(context.Background(), it.r.xks()); err != nil {
				return err
			}
		}
	} else {
		for _, r := range pop[:min(replaySample, len(pop))] {
			items = append(items, replayItem{b, r})
		}
	}
	if _, err := replayRun(s.cfg, res.Workload, items, twin, hot, ls); err != nil {
		res.Verdict.note("traced replay: %v", err)
	}
	res.Verdict.Attempted += len(items)
	if hot {
		sample := make([]searchReq, len(items))
		for i, it := range items {
			sample[i] = it.r
		}
		parseBench(sample, ls)
	}
	if err := servingBench(b.engine, hotPopulation(s.dblp.W)[:64], pop[:min(96, len(pop))], ls); err != nil {
		return err
	}
	topKBench(s.cfg.Seed, ls)
	res.Layers = ls
	return nil
}

// deltaBench measures the write side in process: a posting lookup with no
// live segment, one tail append, and the fold of 64 segments.
func deltaBench(s *served, ls layerSet) error {
	e, err := xks.Load(bytes.NewReader(s.dblp.XML))
	if err != nil {
		return err
	}
	b, err := treeBackingOf(e, nil)
	if err != nil {
		return err
	}
	snap, err := b.head.At(b.head.Tab.Len(), nil)
	if err != nil {
		return err
	}
	kws := s.dblp.W.Keywords
	d := timeIt(200, func() {
		for _, k := range kws {
			snap.LookupIDs(k.Word)
		}
	})
	snap.Release()
	ls["delta.lookup_us_seg0"] = usec(d) / float64(len(kws))

	ctx := context.Background()
	var appendTimes, foldTimes []float64
	for round := range 3 {
		for _, doc := range appendDocs(s.dblp.W, s.cfg.Seed+int64(round), 64) {
			start := time.Now()
			if err := e.AppendXML("0", doc.XML); err != nil {
				return err
			}
			appendTimes = append(appendTimes, msec(time.Since(start)))
		}
		start := time.Now()
		if _, err := e.Compact(ctx); err != nil {
			return err
		}
		foldTimes = append(foldTimes, msec(time.Since(start)))
	}
	ls["delta.append_ms"] = median(appendTimes)
	ls["delta.fold_ms"] = median(foldTimes)
	return nil
}
