package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/analysis"
	"xks/internal/exec"
	"xks/internal/httpapi"
	"xks/internal/index"
	"xks/internal/nid"
	"xks/internal/postings"
	"xks/internal/query"
	"xks/internal/service"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// replaySample is how many operations of a workload the traced run replays.
const replaySample = 200

// layerSet accumulates one traced run's per-layer metrics.
type layerSet map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// timeIt runs f n times and returns the mean duration of one call.
func timeIt(n int, f func()) time.Duration {
	start := time.Now()
	for range n {
		f()
	}
	return time.Since(start) / time.Duration(n)
}

// medianOf runs f n times and returns the median duration.
func medianOf(n int, f func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		start := time.Now()
		f()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// agg sums the spans of one layer whose name has the prefix: total
// duration, span count, and summed counts.
func agg(spans []span, layer, prefix string) (dur time.Duration, n int, counts map[string]int64) {
	counts = map[string]int64{}
	for i := range spans {
		s := &spans[i]
		if s.Layer != layer || !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		dur += time.Duration(s.dur())
		n++
		for k, v := range s.Counts {
			counts[k] += v
		}
	}
	return dur, n, counts
}

// replayRun replays the sample three times — without a recorder, with one,
// and without again — checks every operation against Engine.Search, writes
// the span file, prints the per-layer table, and derives the span-based
// metrics. It returns Engine.Search's own stage times per operation.
func replayRun(cfg *config, workloadName string, sample []replayItem, twin *servingTwin, hot bool, ls layerSet) ([]xks.StageStats, error) {
	pass := func(rec *recorder) (time.Duration, []xks.StageStats, error) {
		for _, it := range sample {
			if it.b.touched != nil {
				it.b.touched = map[string]bool{}
			}
		}
		var total time.Duration
		stages := make([]xks.StageStats, 0, len(sample))
		for _, it := range sample {
			st, d, err := it.b.replayOp(rec, it.r, twin, hot)
			if err != nil {
				return 0, nil, err
			}
			total += d
			stages = append(stages, st)
		}
		return total, stages, nil
	}
	if hot {
		// A cached fragment renders its XML on first use and keeps it; let
		// that happen before the passes that are compared.
		if _, _, err := pass(nil); err != nil {
			return nil, err
		}
	}
	off1, _, err := pass(nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	on, stages, err := pass(rec)
	if err != nil {
		return nil, err
	}
	off2, _, err := pass(nil)
	if err != nil {
		return nil, err
	}
	if err := writeSpans(filepath.Join(cfg.OutDir, "trace-"+workloadName+".json"), workloadName, cfg.Seed, rec.spans); err != nil {
		return nil, err
	}

	rows, total := layerTable(rec.spans)
	fmt.Printf("%-12s traced replay of %d ops, %v attributed; self time by layer:\n", workloadName, len(sample), total.Round(time.Microsecond))
	share := map[string]float64{}
	for _, row := range rows {
		fmt.Printf("%-12s   %-10s %6d spans %14v %6.1f%%\n", workloadName, row.Layer, row.Spans, row.Self.Round(time.Microsecond), 100*row.Share)
		share[row.Layer] = row.Share
	}
	ops := float64(len(sample))
	ls["bench.unattributed_share"] = share["op"]
	ls["bench.trace_overhead_share"] = ratio(float64(on), float64(off1+off2)/2) - 1
	ls["share.candidates"] = share["query"] + share["index"] + share["postings"] + share["delta"] + share["planner"] + share["lca"] + share["rtf"] + share["exec"]
	ls["share.materialize"] = share["prune"] + share["xks"]
	ls["share.serving"] = share["httpapi"] + share["service"] + share["admission"]
	ls["share.delta"] = share["delta"]

	sp := rec.spans
	if d, n, _ := agg(sp, "query", ""); n > 0 {
		ls["query.parse_us"] = usec(d) / float64(n)
	}
	if d, _, c := agg(sp, "postings", ""); c["ids"] > 0 {
		ls["postings.decode_ns_per_id"] = float64(d) / float64(c["ids"])
	}
	if d, n, _ := agg(sp, "index", "LookupIDs"); n > 0 {
		ls["index.lookup_us"] = usec(d) / float64(n)
	}
	if d, n, _ := agg(sp, "delta", "LookupIDs"); n > 0 {
		ls["delta.lookup_us_seg64"] = usec(d) / float64(n)
	}
	if b := sample[0].b; b.compressed != nil {
		ls["index.lists_decoded"] = float64(b.compressed.DecodedLists())
	}
	if d, n, _ := agg(sp, "planner", ""); n > 0 {
		ls["planner.decide_us"] = usec(d) / float64(n)
		_, scan, _ := agg(sp, "lca", "SLCAScanMergeIDsCtx")
		_, indexed, _ := agg(sp, "lca", "SLCAIDsCtx")
		ls["planner.scan_share"] = ratio(float64(scan), float64(scan+indexed))
	}
	var lcaEvents int64
	if d, _, c := agg(sp, "lca", "ELCA"); c["events"] > 0 {
		ls["lca.elca_ns_per_event"] = float64(d) / float64(c["events"])
		lcaEvents += c["events"]
	}
	if d, n, c := agg(sp, "lca", "SLCAIDs"); n > 0 {
		ls["lca.slca_indexed_us"] = usec(d) / float64(n)
		lcaEvents += c["events"]
	}
	if d, _, c := agg(sp, "lca", "SLCAScan"); c["events"] > 0 {
		ls["lca.slca_scan_ns_per_event"] = float64(d) / float64(c["events"])
		lcaEvents += c["events"]
	}
	var rtfRoots int64
	if _, n, c := agg(sp, "lca", ""); n > 0 {
		ls["lca.events_per_op"] = float64(lcaEvents) / ops
		rtfRoots = c["roots"]
		ls["rtf.roots_per_op"] = float64(rtfRoots) / ops
	}
	if d, _, c := agg(sp, "rtf", "BuildIDsPlanned"); c["events"] > 0 {
		ls["rtf.build_ns_per_event"] = float64(d) / float64(c["events"])
	}
	if d, _, c := agg(sp, "rtf", "BuildScored"); c["events"] > 0 {
		ls["rtf.scored_ns_per_event"] = float64(d) / float64(c["events"])
	}
	if n := len(sample); !hot && n > 0 {
		dl, _, _ := agg(sp, "lca", "")
		dr, _, _ := agg(sp, "rtf", "Build")
		dc, _, _ := agg(sp, "exec", "candidates")
		ls["exec.candidates_us"] = usec(dl+dr+dc) / ops
		ds, _, _ := agg(sp, "exec", "Select")
		ls["exec.select_us"] = usec(ds) / ops
	}
	pruneTime, _, pc := agg(sp, "prune", "materialize")
	fragments := pc["fragments"]
	if fragments > 0 {
		d, _, _ := agg(sp, "prune", "BuildFragmentIDs")
		ls["prune.build_us_per_fragment"] = usec(d) / float64(fragments)
		if d, n, _ := agg(sp, "prune", "Prune/ValidContributor"); n > 0 {
			ls["prune.validrtf_us_per_fragment"] = usec(d) / float64(n)
		}
		if d, n, _ := agg(sp, "prune", "Prune/Contributor"); n > 0 {
			ls["prune.maxmatch_us_per_fragment"] = usec(d) / float64(n)
		}
		ls["prune.visited_per_fragment"] = float64(pc["visited"]) / float64(fragments)
		ls["prune.kept_share"] = ratio(float64(pc["kept"]), float64(pc["visited"]))
	}
	if !hot {
		var st xks.StageStats
		for _, s := range stages {
			st.Plan += s.Plan
			st.Candidates += s.Candidates
			st.Select += s.Select
			st.Materialize += s.Materialize
		}
		ls["xks.stage_plan_us"] = usec(st.Plan) / ops
		ls["xks.stage_candidates_us"] = usec(st.Candidates) / ops
		ls["xks.stage_select_us"] = usec(st.Select) / ops
		ls["xks.stage_materialize_us"] = usec(st.Materialize) / ops
		if hyd, _, _ := agg(sp, "rtf", "EventsFor"); fragments > 0 {
			// What Engine.materialize does beyond pruneRTF: node and string
			// assembly. Derived, because the assembly is private to xks.
			ls["xks.assemble_us_per_fragment"] = max(0, usec(st.Materialize-pruneTime-hyd)/float64(fragments))
		}
	}
	if d, _, c := agg(sp, "xks", "Fragment.XML"); c["fragments"] > 0 {
		ls["xks.render_xml_us_per_fragment"] = usec(d) / float64(c["fragments"])
		ls["xks.render_kb_per_fragment"] = float64(c["bytes"]) / 1024 / float64(c["fragments"])
	}
	if d, n, c := agg(sp, "httpapi", ""); n > 0 && c["bytes"] > 0 {
		ls["httpapi.encode_us_per_kb"] = usec(d) / (float64(c["bytes"]) / 1024)
		ls["httpapi.response_kb_per_op"] = float64(c["bytes"]) / 1024 / float64(n)
	}
	if d, n, _ := agg(sp, "service", ""); n > 0 {
		ls["service.hit_us"] = usec(d) / float64(n)
	}
	if d, n, _ := agg(sp, "admission", ""); n > 0 {
		ls["admission.acquire_ns"] = float64(d) / float64(n)
	}
	return stages, nil
}

// topKBench times exec.TopK.Offer: k = 10 over 4096 candidates with seeded
// scores, the shape of a ranked top-10 selection.
func topKBench(seed int64, ls layerSet) {
	rng := rand.New(rand.NewSource(seed))
	cands := make([]*exec.Candidate, 4096)
	for i := range cands {
		cands[i] = &exec.Candidate{Seq: i, Score: rng.Float64()}
	}
	d := timeIt(200, func() {
		t := exec.NewTopK(10)
		t.Offer(cands...)
	})
	ls["exec.topk_ns_per_offer"] = float64(d) / float64(len(cands))
}

// treeBuildBench times the two halves of a tree-backed set-up.
func treeBuildBench(xml []byte, ls layerSet) error {
	var tree *xmltree.Tree
	var err error
	ls["xmltree.parse_ms"] = msec(medianOf(3, func() { tree, err = xmltree.Parse(bytes.NewReader(xml)) }))
	if err != nil {
		return err
	}
	an := analysis.New()
	ls["index.build_ms"] = msec(medianOf(3, func() { index.Build(tree, an) }))
	return nil
}

// storeBench times shred, save and the two open modes, and the two
// accessors pruning calls per node on a store-backed engine.
func storeBench(dir string, xml []byte, seed int64, ls layerSet) error {
	tree, err := xmltree.Parse(bytes.NewReader(xml))
	if err != nil {
		return err
	}
	var st *store.Store
	ls["store.shred_ms"] = msec(medianOf(3, func() { st = store.Shred(tree, analysis.New()) }))
	path := filepath.Join(dir, "layers.xks")
	ls["store.save_ms"] = msec(medianOf(3, func() { err = st.SaveFile(path) }))
	if err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	ls["store.file_bytes_per_xml_byte"] = float64(info.Size()) / float64(len(xml))
	open := func(mode store.OpenMode) (time.Duration, *store.Store, error) {
		var s *store.Store
		var err error
		d := medianOf(5, func() {
			if s != nil {
				s.Close()
			}
			s, err = store.OpenFile(path, store.OpenOptions{Mode: mode})
		})
		return d, s, err
	}
	d, heap, err := open(store.OpenHeap)
	if err != nil {
		return err
	}
	heap.Close()
	ls["store.open_heap_ms"] = msec(d)
	d, mapped, err := open(store.OpenMmap)
	if err != nil {
		return err
	}
	defer mapped.Close()
	ls["store.open_mmap_ms"] = msec(d)
	ls["store.mapped_mb"] = float64(mapped.MappedBytes()) / (1 << 20)
	rng := rand.New(rand.NewSource(seed))
	ids := make([]int, 1<<14)
	for i := range ids {
		ids[i] = rng.Intn(mapped.NumNodes())
	}
	sink := 0
	ls["store.label_at_ns"] = float64(timeIt(20, func() {
		for _, id := range ids {
			sink += len(mapped.LabelAt(id))
		}
	})) / float64(len(ids))
	ls["store.content_at_ns"] = float64(timeIt(20, func() {
		for _, id := range ids {
			sink += len(mapped.ContentAt(id))
		}
	})) / float64(len(ids))
	_ = sink
	return nil
}

// postingsBench measures the block-compressed lists of the workload's own
// terms: bytes per id, streaming Next, and SeekGE to seeded targets. The
// iterator is off the query path today; these are the inputs to the
// streaming-postings decision (ROADMAP direction 3).
func postingsBench(ix *index.Index, words []string, seed int64, ls layerSet) {
	var lists []postings.List
	var ids, encoded int
	for _, w := range words {
		if l, ok := ix.LookupList(w); ok {
			lists = append(lists, l)
			ids += l.Len()
			encoded += l.EncodedLen()
		}
	}
	if ids == 0 {
		return
	}
	ls["postings.bytes_per_id"] = float64(encoded) / float64(ids)
	ls["postings.iter_ns_per_id"] = float64(timeIt(20, func() {
		for _, l := range lists {
			it := l.Iterator()
			for _, ok := it.Next(); ok; _, ok = it.Next() {
			}
		}
	})) / float64(ids)
	rng := rand.New(rand.NewSource(seed))
	maxID := ix.Table().Len()
	const seeks = 64
	targets := make([]nid.ID, seeks)
	for i := range targets {
		targets[i] = nid.ID(rng.Intn(maxID))
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	ls["postings.seek_ns"] = float64(timeIt(50, func() {
		for _, l := range lists {
			it := l.Iterator()
			for _, t := range targets {
				it.SeekGE(t)
			}
		}
	})) / float64(seeks*len(lists))
}

// firstLineWriter is a ResponseWriter that discards the body and notes when
// the first complete NDJSON line was written.
type firstLineWriter struct {
	header http.Header
	start  time.Time
	first  time.Duration
}

func newFirstLineWriter() *firstLineWriter {
	return &firstLineWriter{header: http.Header{}, start: time.Now()}
}

func (w *firstLineWriter) Header() http.Header { return w.header }
func (w *firstLineWriter) WriteHeader(int)     {}
func (w *firstLineWriter) Write(p []byte) (int, error) {
	if w.first == 0 && bytes.IndexByte(p, '\n') >= 0 {
		w.first = time.Since(w.start)
	}
	return len(p), nil
}

// servingBench measures the serving layers in process, the way xkserver
// wires them: Service.Search's own overhead on a miss, the handler's round
// trip on a hit, and time to the first streamed line.
func servingBench(e *xks.Engine, hotReqs, coldReqs []searchReq, ls layerSet) error {
	ctx := context.Background()
	// Misses: a cache-less service, so repeats stay misses.
	nocache := service.New(service.SingleDoc{Name: "dblp.xks", Engine: e}, service.Config{})
	var overhead time.Duration
	n := 0
	for _, r := range coldReqs {
		if r.Stream {
			continue
		}
		start := time.Now()
		res, _, err := nocache.Search(ctx, r.xks())
		wall := time.Since(start)
		if err != nil {
			return err
		}
		overhead += wall - res.Stats.Elapsed - res.Stats.Stages.Plan
		n++
	}
	if n > 0 {
		ls["service.miss_overhead_us"] = usec(overhead) / float64(n)
	}
	h := httpapi.NewHandler(nocache, &httpapi.Options{Admission: admission.New(admission.Config{MaxInFlight: 256, MaxQueue: 1024})})
	var first time.Duration
	n = 0
	for _, r := range coldReqs {
		if !r.Stream {
			continue
		}
		w := newFirstLineWriter()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, r.path(""), nil))
		first += w.first
		n++
	}
	if n > 0 {
		ls["httpapi.stream_first_us"] = usec(first) / float64(n)
	}

	// Hits: the default-sized cache, warmed.
	twin := newServingTwin(e, 1024)
	hh := httpapi.NewHandler(twin.svc, &httpapi.Options{Admission: twin.adm})
	var hit time.Duration
	for pass := range 2 {
		for _, r := range hotReqs {
			w := newFirstLineWriter()
			hh.ServeHTTP(w, httptest.NewRequest(http.MethodGet, r.path(""), nil))
			if pass == 1 {
				hit += time.Since(w.start)
			}
		}
	}
	if len(hotReqs) > 0 {
		ls["httpapi.hit_roundtrip_us"] = usec(hit) / float64(len(hotReqs))
	}
	return nil
}

// parseBench fills query.parse_us for workloads whose replay never parses
// (serve-hot: a hit's parse hides inside Service.Search).
func parseBench(sample []searchReq, ls layerSet) {
	an := analysis.New()
	d := timeIt(10, func() {
		for _, r := range sample {
			query.Parse(r.Query, an)
		}
	})
	ls["query.parse_us"] = usec(d) / float64(len(sample))
}
