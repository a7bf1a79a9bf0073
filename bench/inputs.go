package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"xks"
	"xks/internal/datagen"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

// scale sizes the corpora. "full" is the repo's `large` preset (the one
// BENCH_PR9/10 call dblp-large), "smoke" its `small` preset for the tests.
type scale struct {
	Name        string
	DBLPRecords int
	XMarkItems  int
}

var scales = map[string]scale{
	"full":  {Name: "full", DBLPRecords: 12000, XMarkItems: 2400},
	"smoke": {Name: "smoke", DBLPRecords: 400, XMarkItems: 120},
}

// corpus is one generated document: its serialized XML (what the programs
// under test are handed) and the paper's workload for it.
type corpus struct {
	Name string
	XML  []byte
	W    workload.Workload
}

// genCorpus builds the DBLP or XMark-standard document of the scale exactly
// as experiments.Presets does (DBLP from generator seed 1, XMark from 2, the
// paper's keyword frequencies scaled by records/20000), so "dblp-large" here
// is the document BENCH_PR9/10 measured. The corpus is the data set, the
// same for every run; the run's seed shapes the traffic over it — operation
// order, Zipf draws, arrival schedule, appended records. A corpus per seed
// was tried and dropped: result sizes moved the allocation and latency
// metrics by up to 15 % between seeds, which is input variance no change to
// the code under test could be judged against.
func genCorpus(kind string, sc scale) (*corpus, error) {
	c := &corpus{Name: kind}
	var tree *xmltree.Tree
	switch kind {
	case "dblp":
		c.W = workload.DBLP()
		specs, err := c.W.Specs(0, float64(sc.DBLPRecords)/20000)
		if err != nil {
			return nil, err
		}
		tree = datagen.DBLP(datagen.DBLPConfig{Seed: 1, NumRecords: sc.DBLPRecords, Keywords: specs})
	case "xmark":
		c.W = workload.XMark()
		specs, err := c.W.Specs(int(workload.XMarkStandard), float64(sc.XMarkItems)/20000)
		if err != nil {
			return nil, err
		}
		tree = datagen.XMark(datagen.XMarkConfig{Seed: 2, Items: sc.XMarkItems, Keywords: specs})
	default:
		return nil, fmt.Errorf("unknown corpus kind %q", kind)
	}
	var b bytes.Buffer
	if err := xmltree.WriteXML(&b, tree.Root); err != nil {
		return nil, err
	}
	c.XML = b.Bytes()
	return c, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// searchReq is one search of a serving workload, in the vocabulary of the
// /search endpoint.
type searchReq struct {
	Query  string
	SLCA   bool
	Rank   bool
	Limit  int
	Stream bool
	// Follow asks the generator to request the next page once through the
	// response's cursor (the "limit=25 followed once by its cursor" shape).
	Follow bool
	// Algo is "" (ValidRTF) or "maxmatch".
	Algo string
}

// path renders the request as the /search URL path+query; cursor is
// appended when non-empty.
func (r searchReq) path(cursor string) string {
	v := url.Values{"q": {r.Query}}
	if r.SLCA {
		v.Set("slca", "1")
	}
	if r.Rank {
		v.Set("rank", "1")
	}
	if r.Limit > 0 {
		v.Set("limit", strconv.Itoa(r.Limit))
	}
	if r.Stream {
		v.Set("stream", "1")
	}
	if r.Algo != "" {
		v.Set("algo", r.Algo)
	}
	if cursor != "" {
		v.Set("cursor", cursor)
	}
	return "/search?" + v.Encode()
}

// xks is the same search as an in-process request.
func (r searchReq) xks() xks.Request {
	req := xks.Request{Query: r.Query, Rank: r.Rank, Limit: r.Limit}
	if r.SLCA {
		req.Semantics = xks.SLCAOnly
	}
	if r.Algo == "maxmatch" {
		req.Algorithm = xks.MaxMatch
	}
	return req
}

// termSets enumerates every 2- and 3-keyword combination of the workload's
// keywords, in a fixed lexical order of keyword positions.
func termSets(w workload.Workload) []string {
	kw := w.Keywords
	var out []string
	for i := range kw {
		for j := i + 1; j < len(kw); j++ {
			out = append(out, kw[i].Word+" "+kw[j].Word)
		}
	}
	for i := range kw {
		for j := i + 1; j < len(kw); j++ {
			for k := j + 1; k < len(kw); k++ {
				out = append(out, kw[i].Word+" "+kw[j].Word+" "+kw[k].Word)
			}
		}
	}
	return out
}

// hotPopulation is the serve-hot working set: 64 keyword sets × {ELCA,
// SLCA} × {ranked top-10, unranked full} = 256 distinct requests, a quarter
// of the server's default 1024-entry cache. The population and its
// popularity ranks are the same for every seed (a fixed permutation of the
// keyword sets): with Zipf(1.0) the top ranks carry most of the traffic, so
// a seeded rank assignment would make the seed — not the code — decide
// whether the median request is a 400-byte or a megabyte answer. The seed
// shapes the draw sequence instead.
func hotPopulation(w workload.Workload) []searchReq {
	sets := termSets(w)
	rng := rand.New(rand.NewSource(0x5eed))
	rng.Shuffle(len(sets), func(i, j int) { sets[i], sets[j] = sets[j], sets[i] })
	sets = sets[:min(64, len(sets))]
	var out []searchReq
	for _, q := range sets {
		out = append(out,
			searchReq{Query: q, Rank: true, Limit: 10},
			searchReq{Query: q},
			searchReq{Query: q, SLCA: true, Rank: true, Limit: 10},
			searchReq{Query: q, SLCA: true},
		)
	}
	return out
}

// coldPopulation is the serve-cold (and serve-write read) mix: every 2- and
// 3-keyword set under SLCA semantics × three shapes — ranked top-10, a
// 25-fragment page followed once by its cursor, and a 50-fragment NDJSON
// stream — in a seeded shuffle. With 20 keywords that is 3990 distinct
// requests against a 1024-entry cache, and each is issued at most once, so
// every operation misses.
//
// ELCA is left to fig5-full and serve-hot on purpose. On the DBLP document
// nearly every ELCA answer contains the fragment rooted at the document
// root (150–700 KB of XML, 25–35 ms of pruning and rendering against 2 ms
// for the whole SLCA request), which makes an ELCA+SLCA mix bimodal at
// 50/50 — the median flips between the modes from run to run (52 % quartile
// spread over ten seeds) — and makes materialization, not the candidate
// stage this workload exists to stress, the largest share.
func coldPopulation(w workload.Workload, seed int64) []searchReq {
	var out []searchReq
	for _, q := range termSets(w) {
		out = append(out,
			searchReq{Query: q, SLCA: true, Rank: true, Limit: 10},
			searchReq{Query: q, SLCA: true, Limit: 25, Follow: true},
			searchReq{Query: q, SLCA: true, Limit: 50, Stream: true},
		)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
// math/rand's Zipf needs s > 1; the workload pins s = 1.
type zipf struct {
	cum []float64
	rng *rand.Rand
}

func newZipf(n int, s float64, seed int64) *zipf {
	z := &zipf{cum: make([]float64, n), rng: rand.New(rand.NewSource(seed))}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) next() int {
	return min(sort.SearchFloat64s(z.cum, z.rng.Float64()), len(z.cum)-1)
}

// draws returns the first n ranks of the seeded sequence.
func (z *zipf) draws(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = z.next()
	}
	return out
}

// arrivals is an open-loop schedule: due offsets from the start of the
// window with exponentially distributed gaps at the given rate (a Poisson
// process), covering exactly the window.
func arrivals(rate float64, window time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	at := 0.0
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, due)
	}
}

// appendDoc is the i-th record the serve-write workload appends under the
// document root: an <inproceedings> carrying one workload keyword and one
// token unique to (seed, i), so every acknowledged append can be looked up
// afterwards.
type appendDoc struct {
	Token string
	XML   string
}

func appendDocs(w workload.Workload, seed int64, n int) []appendDoc {
	rng := rand.New(rand.NewSource(seed))
	out := make([]appendDoc, n)
	for i := range out {
		kw := w.Keywords[rng.Intn(len(w.Keywords))].Word
		tok := fmt.Sprintf("zqtok%dx%d", seed, i)
		out[i] = appendDoc{Token: tok, XML: fmt.Sprintf(
			"<inproceedings><author>bench writer</author><title>%s %s appended</title><year>2009</year><booktitle>xks bench</booktitle></inproceedings>",
			kw, tok)}
	}
	return out
}

// hashRequests digests a request list (the paths the server is sent) for
// the golden file's input pinning.
func hashRequests(reqs []searchReq) string {
	var b strings.Builder
	for _, r := range reqs {
		b.WriteString(r.path(""))
		if r.Follow {
			b.WriteString("+follow")
		}
		b.WriteByte('\n')
	}
	return sha([]byte(b.String()))
}
