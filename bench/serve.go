package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"xks"
)

// served is one serving workload's run state: the DBLP corpus on disk, the
// live server, and what set-up cost.
type served struct {
	cfg    *config
	dir    string // run directory under out/
	dblp   *corpus
	xml    string // path of dblp.xml
	store  string // path of dblp.xks (store-backed workloads)
	srv    *server
	client *http.Client
	setup  time.Duration
}

// newServed generates the corpus and writes the file the programs under test
// are handed. Neither is part of set-up: they are the benchmark's inputs.
func newServed(cfg *config, workloadName string) (*served, error) {
	s := &served{cfg: cfg, client: newClient()}
	s.dir = filepath.Join(cfg.OutDir, fmt.Sprintf("%s-seed%d", workloadName, cfg.Seed))
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.dblp, err = genCorpus("dblp", cfg.Scale); err != nil {
		return nil, err
	}
	s.xml = filepath.Join(s.dir, "dblp.xml")
	s.store = filepath.Join(s.dir, "dblp.xks")
	return s, os.WriteFile(s.xml, s.dblp.XML, 0o644)
}

// setUp brings the system up setupRepeats times the way an operator would —
// for the store-backed workloads xkshred (shred + save) then xkserver over
// the mmap-ed store, for the write workload xkserver over the XML file
// (parse + index.Build inside) — each timed from the first exec to the first
// /healthz 200. The last server stays up; setup is the median.
func (s *served) setUp(storeBacked bool) error {
	var times []float64
	for i := range setupRepeats {
		if s.srv != nil {
			s.srv.stop()
			s.srv = nil
		}
		start := time.Now()
		args := []string{"-file", s.xml, "-allow-writes", "-compact-interval", "2s"}
		if storeBacked {
			shred := exec.Command(filepath.Join(s.cfg.BinDir, "xkshred"), "-in", s.xml, "-out", s.store)
			if out, err := shred.CombinedOutput(); err != nil {
				return fmt.Errorf("xkshred: %v\n%s", err, out)
			}
			args = []string{"-store", s.store, "-mmap", "on"}
		}
		srv, err := startServer(filepath.Join(s.cfg.BinDir, "xkserver"), args,
			filepath.Join(s.dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return err
		}
		s.srv = srv
		times = append(times, time.Since(start).Seconds())
	}
	s.setup = time.Duration(median(times) * float64(time.Second))
	return nil
}

// close stops the server and, unless the run found failures worth a look at
// the server's log, removes the run directory (corpus, store and logs are
// 20–40 MB a run, and the pipeline makes 92).
func (s *served) close(v *verdict) {
	if s.srv != nil {
		s.srv.stop()
	}
	s.client.CloseIdleConnections()
	if v.Failed == 0 {
		os.RemoveAll(s.dir)
	}
}

// liveWindow is how long the live part of a run lasts: the whole window
// with tracing off, half of it on a traced run (the other half goes to the
// in-process replay and the layer microbenchmarks).
func (s *served) liveWindow() time.Duration {
	if s.cfg.Trace {
		return s.cfg.Window / 2
	}
	return s.cfg.Window
}

// scraped is the server's own view of a timed window: /metrics and the
// MemStats footer read just before and just after it.
type scraped struct {
	before, after map[string]float64
	// peak is the highest xks_delta_segments a scrape every 250 ms saw
	// during the window (the write workload's segment backlog).
	peak float64
}

func (sc scraped) delta(series string) float64 { return sc.after[series] - sc.before[series] }

// measure runs the load under a meter on the server child and scrapes the
// server's counters around it (and, for the write workload, during it).
func (s *served) measure(watchSegments bool, load func()) (windowStats, scraped, error) {
	ctx := context.Background()
	var sc scraped
	var err error
	if sc.before, err = scrapeMetrics(ctx, s.srv.base); err != nil {
		return windowStats{}, sc, err
	}
	m, err := startMeter(s.srv.cmd.Process.Pid, func() (memStats, error) {
		return scrapeMemStats(ctx, s.srv.debug)
	}, true)
	if err != nil {
		return windowStats{}, sc, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	if watchSegments {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(250 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if now, err := scrapeMetrics(ctx, s.srv.base); err == nil {
						sc.peak = max(sc.peak, now["xks_delta_segments"])
					}
				}
			}
		}()
	}
	load()
	close(stop)
	wg.Wait()
	ws, err := m.finish()
	if err != nil {
		return ws, sc, err
	}
	if err := s.srv.alive(); err != nil {
		return ws, sc, err
	}
	sc.after, err = scrapeMetrics(ctx, s.srv.base)
	return ws, sc, err
}

// referenceEngine is the in-process, tree-backed oracle for the served
// answers.
func (s *served) referenceEngine() (*xks.Engine, error) {
	return xks.Load(bytes.NewReader(s.dblp.XML))
}

func searchSamples(ops []op) []sample {
	out := make([]sample, len(ops))
	for i := range ops {
		out[i] = sample{At: ops[i].Done, Lat: ops[i].latency()}
	}
	return out
}

func firstN(n, limit int) []int {
	out := make([]int, min(n, limit))
	for i := range out {
		out[i] = i
	}
	return out
}

func keepSet(sample []int) func(int) bool {
	set := make(map[int]bool, len(sample))
	for _, i := range sample {
		set[i] = true
	}
	var mu sync.Mutex
	return func(idx int) bool {
		mu.Lock()
		defer mu.Unlock()
		if set[idx] {
			delete(set, idx) // first occurrence only
			return true
		}
		return false
	}
}

// runServeHot: live xkserver over the mmap-ed store, closed loop on two
// connections, Zipf(1.0) over 256 requests after one warming pass — the
// working set is a quarter of the cache, so the pipeline is bypassed and
// httpapi, service and admission do the work.
func runServeHot(cfg *config) (*result, error) {
	res := &result{Workload: "serve-hot", Seed: cfg.Seed}
	v := &res.Verdict
	s, err := newServed(cfg, res.Workload)
	if err != nil {
		return nil, err
	}
	defer s.close(v)
	if err := s.setUp(true); err != nil {
		return nil, err
	}
	pop := hotPopulation(s.dblp.W)
	sample := firstN(len(pop), checkSample)

	// The warming pass is part of set-up: the user of a cache waits for it.
	warmStart := time.Now()
	warm := runClosed(s.client, s.srv.base, &feed{reqs: pop, keep: keepSet(sample)}, maxConns, time.Hour)
	s.setup += time.Since(warmStart)

	window := s.liveWindow()
	// More draws than two connections can consume in the window.
	draws := newZipf(len(pop), 1.0, cfg.Seed).draws(int(window.Seconds()+1) * 20000)
	var ops []op
	ws, sc, err := s.measure(false, func() {
		ops = runClosed(s.client, s.srv.base, &feed{reqs: pop, order: draws, keep: keepSet(sample)}, maxConns, window)
	})
	if err != nil {
		return nil, err
	}

	ref, err := s.referenceEngine()
	if err != nil {
		return nil, err
	}
	v.checkServed(append(warm, ops...), pop, sample, ref)
	v.Attempted -= len(warm) // the warming pass is checked but not counted as timed work
	if hits := sc.delta("xks_cache_hits_total"); hits < 0.99*float64(len(ops)) {
		v.note("serve-hot: %v cache hits for %d requests; the working set no longer fits the cache", hits, len(ops))
	}
	checkGolden(cfg, res.Workload, pins{
		Inputs: map[string]string{"dblp.xml": sha(s.dblp.XML), "hot.requests": hashRequests(pop)},
		Answer: v.digest(),
	}, v)
	if cfg.Trace {
		return res, serveLayers(s, res, ops, nil, sc, ws, pop, draws)
	}
	res.E2E, res.Samples = endToEndMetrics(s.setup, searchSamples(ops), nil, evenEdges(window), ws)
	return res, nil
}

// runServeCold: the same server, fresh per run and unwarmed, over 3990
// distinct requests each issued once per cycle (the cycle is four times the
// cache, so LRU never keeps one until its next turn) — every operation misses
// the cache, posting lists decode on first touch, and the SLCA top-K, page
// and stream shapes keep pruning small.
//
// The gated run drives it closed-loop on two connections; the traced run
// open-loop at the pinned rate, timed from due time. Both were meant to be
// open loops. But an open loop leaves the server idle between requests, and
// on this sandbox — a VM whose idle vCPUs halt — the wake-up is most of a
// 2 ms request and varies with the host: over ten seeds the median had a
// 26 % quartile spread at 100 requests/s, against 2 % for the closed loop,
// which keeps both cores awake. A metric that noisy cannot gate anything, so
// latency from due time is reported (traced run, ungated) and the closed
// loop is what regressions are judged on.
func runServeCold(cfg *config) (*result, error) {
	res := &result{Workload: "serve-cold", Seed: cfg.Seed}
	v := &res.Verdict
	s, err := newServed(cfg, res.Workload)
	if err != nil {
		return nil, err
	}
	defer s.close(v)
	if err := s.setUp(true); err != nil {
		return nil, err
	}
	pop := coldPopulation(s.dblp.W, cfg.Seed)
	sample := firstN(len(pop), checkSample)
	window := s.liveWindow()

	var ops []op
	ws, sc, err := s.measure(false, func() {
		f := &feed{reqs: pop, cycle: true, keep: keepSet(sample)}
		if cfg.Trace {
			ops = runOpen(s.client, s.srv.base, f, maxConns, arrivals(coldRateRPS, window, cfg.Seed))
		} else {
			ops = runClosed(s.client, s.srv.base, f, maxConns, window)
		}
	})
	if err != nil {
		return nil, err
	}

	ref, err := s.referenceEngine()
	if err != nil {
		return nil, err
	}
	v.checkServed(ops, pop, sample, ref)
	if hits := sc.delta("xks_cache_hits_total"); hits > 0.01*float64(len(ops)) {
		v.note("serve-cold: %v cache hits; every request was meant to miss", hits)
	}
	checkGolden(cfg, res.Workload, pins{
		Inputs: map[string]string{"dblp.xml": sha(s.dblp.XML), "cold.requests": hashRequests(pop)},
		Answer: v.digest(),
		Seeded: map[string]bool{"cold.requests": true, "answers": true},
	}, v)
	if cfg.Trace {
		return res, serveLayers(s, res, ops, nil, sc, ws, pop, nil)
	}
	res.E2E, res.Samples = endToEndMetrics(s.setup, searchSamples(ops), nil, evenEdges(window), ws)
	return res, nil
}

// runServeWrite: xkserver over the XML file with writes enabled and a 2 s
// background compactor (tree-backed: the only backing that accepts appends
// today). Connection B runs the cold read mix closed-loop; connection A posts
// one tail append per eight reads (see runReadsWithAppends), timed from when
// it became due.
func runServeWrite(cfg *config) (*result, error) {
	res := &result{Workload: "serve-write", Seed: cfg.Seed}
	v := &res.Verdict
	s, err := newServed(cfg, res.Workload)
	if err != nil {
		return nil, err
	}
	defer s.close(v)
	if err := s.setUp(false); err != nil {
		return nil, err
	}
	pop := coldPopulation(s.dblp.W, cfg.Seed)
	window := s.liveWindow()
	// More documents than one connection can read eightfold in the window.
	docs := appendDocs(s.dblp.W, cfg.Seed, int(window.Seconds()+1)*250)

	var (
		reads   []op
		appends []appendOp
	)
	ws, sc, err := s.measure(true, func() {
		reads, appends = runReadsWithAppends(s.client, s.srv.base, &feed{reqs: pop, cycle: true}, docs, window)
	})
	if err != nil {
		return nil, err
	}

	// Reads during the writes see a moving state, so they are checked for
	// status and shape only; the answer-for-answer comparison happens after
	// the last append, against an engine given the same appends in order.
	v.checkServed(reads, pop, nil, nil)
	ref, err := s.referenceEngine()
	if err != nil {
		return nil, err
	}
	sample := firstN(len(pop), checkSample)
	for _, idx := range sample {
		a, err := reference(ref, pop[idx])
		if err != nil {
			return nil, err
		}
		v.pin(pop[idx].path(""), a) // base-state answers: what the golden file pins
	}
	p := pins{
		Inputs: map[string]string{"dblp.xml": sha(s.dblp.XML), "cold.requests": hashRequests(pop), "appends": hashAppends(docs)},
		Answer: v.digest(),
		Seeded: map[string]bool{"cold.requests": true, "appends": true, "answers": true},
	}
	var acked []appendDoc
	for i, a := range appends {
		v.Attempted++
		if a.Err != nil || a.Status != http.StatusOK {
			v.fail("append %d: status %d err %v", i, a.Status, a.Err)
			continue
		}
		acked = append(acked, docs[i])
		if err := ref.AppendXML("0", docs[i].XML); err != nil {
			return nil, fmt.Errorf("reference append: %w", err)
		}
	}
	s.checkAfterWrites(v, pop, sample, acked, ref)
	checkGolden(cfg, res.Workload, p, v)
	if cfg.Trace {
		return res, serveLayers(s, res, reads, appends, sc, ws, pop, nil)
	}
	appendDone := make([]time.Duration, len(appends))
	for i, a := range appends {
		appendDone[i] = a.Done
	}
	res.E2E, res.Samples = endToEndMetrics(s.setup, searchSamples(reads), appendDone, evenEdges(window), ws)
	return res, nil
}

// checkAfterWrites requires every acknowledged append's unique token to be
// searchable, and the sampled requests to answer exactly as an in-process
// engine that received the same appends.
func (s *served) checkAfterWrites(v *verdict, pop []searchReq, sample []int, acked []appendDoc, ref *xks.Engine) {
	t0 := time.Now()
	for _, d := range acked {
		o := op{Req: searchReq{Query: d.Token, Limit: 1}}
		doSearch(s.client, s.srv.base, &o, t0, true)
		a, _, err := parseAnswer(o.Body, false)
		if o.failed() || err != nil || a.NumLCAs < 1 {
			v.fail("acknowledged append %s is not searchable (status %d, err %v %v, %d roots)", d.Token, o.Status, o.Err, err, a.NumLCAs)
		}
	}
	for _, idx := range sample {
		o := op{Idx: idx, Req: pop[idx]}
		doSearch(s.client, s.srv.base, &o, t0, true)
		got, _, err := parseAnswer(o.Body, o.Req.Stream)
		if o.failed() || err != nil {
			v.fail("post-write %s: status %d err %v %v", o.Req.path(""), o.Status, o.Err, err)
			continue
		}
		want, err := reference(ref, pop[idx])
		if err != nil {
			v.note("post-write reference %s: %v", o.Req.path(""), err)
			continue
		}
		if got.String() != want.String() {
			v.fail("post-write %s: served %s, reference %s", o.Req.path(""), clip(got.String()), clip(want.String()))
		}
	}
}

func hashAppends(docs []appendDoc) string {
	var b bytes.Buffer
	for _, d := range docs[:min(len(docs), 100)] { // a prefix, so the pin does not depend on the window length
		b.WriteString(d.XML)
		b.WriteByte('\n')
	}
	return sha(b.Bytes())
}
