package xks

// Page-scoped materialization: Search and Corpus.Search assemble their page
// in blocks of up to blockSize candidates, Stream in blocks of one. These
// tests hold the two to the same answers, field by field, across every
// configuration axis and at the block boundaries; hold faults and deadlines
// to the same prefix; and, under the race detector, hold the candidates'
// borrowed event buffer to its request's lifetime and a stream's window
// slabs to the fragments carved from them.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"xks/internal/fault"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// blockQuery matches each paper of paperTree in one fragment.
const blockQuery = "alpha beta gamma"

// paperTree builds a document whose n papers are blockQuery's n ELCAs and n
// SLCAs: each holds the three keywords in different children and no child
// holds all three. The papers vary so the two pruning mechanisms differ and
// a block carries several keyword masks: a duplicate author (rule 2(b)
// drops it under ValidRTF), an author with other content (kept), and a note
// matching two keywords (MaxMatch drops the title and the authors it
// strictly covers; ValidRTF keeps them, their labels being unique or
// distinct in content).
func paperTree(n int) *xmltree.Tree {
	kids := []xmltree.E{{Label: "header", Text: "proceedings"}}
	for i := range n {
		p := xmltree.E{Label: "paper", Kids: []xmltree.E{
			{Label: "title", Text: fmt.Sprintf("alpha w%05d", i)},
			{Label: "author", Text: "beta"},
			{Label: "year", Text: "gamma"},
		}}
		if i%3 == 0 {
			p.Kids = append(p.Kids, xmltree.E{Label: "author", Text: "beta"})
		}
		if i%5 == 2 {
			p.Kids = append(p.Kids, xmltree.E{Label: "author", Text: fmt.Sprintf("beta x%05d", i)})
		}
		if i%4 == 1 {
			p.Kids = append(p.Kids, xmltree.E{Label: "note", Text: "alpha beta"})
		}
		kids = append(kids, p)
	}
	return xmltree.Build(xmltree.E{Label: "proceedings", Kids: kids})
}

// blockBacking builds an engine over a paperTree of n papers in one backing:
// the in-memory store image, or its file round trip on the heap or mapped.
type blockBacking struct {
	name  string
	build func(t *testing.T, n int) *Engine
}

var blockBackings = []blockBacking{
	{"image", func(_ *testing.T, n int) *Engine { return FromTree(paperTree(n)) }},
	{"v3-heap", func(t *testing.T, n int) *Engine { return reopened(t, store.Shred(paperTree(n), nil), store.OpenHeap) }},
	{"v3-mmap", func(t *testing.T, n int) *Engine { return reopened(t, store.Shred(paperTree(n), nil), store.OpenMmap) }},
}

// blockPage is one page as either front returns it.
type blockPage struct {
	frags     []CorpusFragment
	cursor    Cursor
	truncated bool
	trunc     TruncationReason
	stats     Stats
}

// blockFront runs a request collected (Search) or as a drained Stream.
type blockFront struct {
	name           string
	search, stream func(context.Context, Request) (blockPage, error)
}

func engineFront(e *Engine) blockFront {
	page := func(r *Result) blockPage {
		p := blockPage{cursor: r.Cursor, truncated: r.Truncated, trunc: r.Truncation, stats: r.Stats}
		for _, f := range r.Fragments {
			p.frags = append(p.frags, CorpusFragment{Fragment: f})
		}
		return p
	}
	return blockFront{
		name: "engine",
		search: func(ctx context.Context, req Request) (blockPage, error) {
			r, err := e.Search(ctx, req)
			if err != nil {
				return blockPage{}, err
			}
			return page(r), nil
		},
		stream: func(ctx context.Context, req Request) (blockPage, error) {
			seq, trailer := e.Stream(ctx, req)
			var frags []*Fragment
			for f, err := range seq {
				if err != nil {
					return blockPage{}, err
				}
				frags = append(frags, f)
			}
			r := trailer()
			r.Fragments = frags
			return page(r), nil
		},
	}
}

func corpusFront(name string, c *Corpus, doc string) blockFront {
	page := func(r *Results) blockPage {
		return blockPage{frags: r.Fragments, cursor: r.Cursor, truncated: r.Truncated, trunc: r.Truncation, stats: r.Stats}
	}
	return blockFront{
		name: name,
		search: func(ctx context.Context, req Request) (blockPage, error) {
			req.Document = doc
			r, err := c.Search(ctx, req)
			if err != nil {
				return blockPage{}, err
			}
			return page(r), nil
		},
		stream: func(ctx context.Context, req Request) (blockPage, error) {
			req.Document = doc
			seq, trailer := c.Stream(ctx, req)
			var frags []CorpusFragment
			for f, err := range seq {
				if err != nil {
					return blockPage{}, err
				}
				frags = append(frags, f)
			}
			r := trailer()
			r.Fragments = frags
			return page(r), nil
		},
	}
}

// requireSamePage fails unless the collected page equals the streamed one in
// every public field of every fragment and node, the rendered XML, the
// cursor bytes and the envelope's counts.
func requireSamePage(t *testing.T, label string, got, want blockPage) {
	t.Helper()
	if got.cursor != want.cursor || got.truncated != want.truncated || got.trunc != want.trunc {
		t.Fatalf("%s: cursor %q truncated %v (%q), stream %q %v (%q)", label,
			got.cursor, got.truncated, got.trunc, want.cursor, want.truncated, want.trunc)
	}
	if got.stats.NumLCAs != want.stats.NumLCAs || got.stats.Selected != want.stats.Selected ||
		got.stats.KeywordNodes != want.stats.KeywordNodes || !slices.Equal(got.stats.Keywords, want.stats.Keywords) {
		t.Fatalf("%s: stats %+v, stream %+v", label, got.stats, want.stats)
	}
	if len(got.frags) != len(want.frags) {
		t.Fatalf("%s: %d fragments, stream %d", label, len(got.frags), len(want.frags))
	}
	for i := range got.frags {
		a, b := got.frags[i], want.frags[i]
		if a.Document != b.Document || a.Root != b.Root || a.RootLabel != b.RootLabel || a.IsSLCA != b.IsSLCA ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) || a.Pruned != b.Pruned || len(a.Nodes) != len(b.Nodes) {
			t.Fatalf("%s fragment %d: %s %s %s slca=%v score=%v pruned=%d nodes=%d, stream %s %s %s %v %v %d %d", label, i,
				a.Document, a.Root, a.RootLabel, a.IsSLCA, a.Score, a.Pruned, len(a.Nodes),
				b.Document, b.Root, b.RootLabel, b.IsSLCA, b.Score, b.Pruned, len(b.Nodes))
		}
		for j := range a.Nodes {
			if !sameNode(a.Fragment, b.Fragment, j) || a.NodeText(j) != b.NodeText(j) {
				t.Fatalf("%s fragment %d node %d: %s, stream %s", label, i, j, nodeFacts(a.Fragment, j), nodeFacts(b.Fragment, j))
			}
		}
		if a.XML() != b.XML() {
			t.Fatalf("%s fragment %d: XML differs:\n%s\n----\n%s", label, i, a.XML(), b.XML())
		}
	}
}

// blockFronts builds, for a page of n fragments in one backing, the three
// fronts: a bare engine, a corpus whose two documents split the papers, and
// doc= over a corpus whose named document holds all n.
func blockFronts(t *testing.T, b blockBacking, n int) []blockFront {
	split := NewCorpus()
	split.Add("a.xml", b.build(t, n-n/2))
	split.Add("b.xml", b.build(t, n/2))
	filtered := NewCorpus()
	filtered.Add("other.xml", b.build(t, 3))
	filtered.Add("papers.xml", b.build(t, n))
	return []blockFront{
		engineFront(b.build(t, n)),
		corpusFront("corpus", split, ""),
		corpusFront("doc=", filtered, "papers.xml"),
	}
}

// TestBlockSearchMatchesStream: a collected page equals the drained stream,
// over ELCA/SLCA × ValidRTF/MaxMatch, the store image and both its file
// round trips, the engine, a corpus and doc=, unlimited, a limit=25 cursor
// walk and rank=1&limit=10, on pages of 1, 63, 64, 65 and 129 fragments —
// one block less one, exactly one, one plus one, and two plus one.
func TestBlockSearchMatchesStream(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 63, 64, 65, 129} {
		for _, b := range blockBackings {
			for _, fr := range blockFronts(t, b, n) {
				for _, sem := range []Semantics{AllLCA, SLCAOnly} {
					for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
						base := Request{Query: blockQuery, Semantics: sem, Algorithm: algo}
						label := fmt.Sprintf("n=%d %s %s %s/%s", n, b.name, fr.name, sem, algo)
						got, err := fr.search(ctx, base)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(got.frags) != n {
							t.Fatalf("%s: %d fragments, want %d", label, len(got.frags), n)
						}
						want, err := fr.stream(ctx, base)
						if err != nil {
							t.Fatalf("%s: stream: %v", label, err)
						}
						requireSamePage(t, label+" unlimited", got, want)

						ranked := base
						ranked.Rank, ranked.Limit = true, 10
						got, err = fr.search(ctx, ranked)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want, err = fr.stream(ctx, ranked)
						if err != nil {
							t.Fatalf("%s: stream: %v", label, err)
						}
						requireSamePage(t, label+" rank=1&limit=10", got, want)

						paged, walked := base, 0
						paged.Limit = 25
						for page := 0; ; page++ {
							got, err = fr.search(ctx, paged)
							if err != nil {
								t.Fatalf("%s page %d: %v", label, page, err)
							}
							want, err = fr.stream(ctx, paged)
							if err != nil {
								t.Fatalf("%s page %d: stream: %v", label, page, err)
							}
							requireSamePage(t, fmt.Sprintf("%s limit=25 page %d", label, page), got, want)
							walked += len(got.frags)
							if got.cursor == "" {
								break
							}
							paged.Cursor = got.cursor
						}
						if walked != n {
							t.Fatalf("%s: the limit=25 walk covers %d fragments, want %d", label, walked, n)
						}
					}
				}
			}
		}
	}
}

// TestBlockFaultBoundaries: a materialize fault at candidate After — the
// first, the last of a block, the first of the next, the last of the page —
// fails Search and the drained Stream with the same error after assembling
// the same fragments: the collected block stops where the stream does.
func TestBlockFaultBoundaries(t *testing.T) {
	const n = 129
	e := FromTree(paperTree(n))
	c := NewCorpus()
	c.Add("a.xml", FromTree(paperTree(n-n/2)))
	c.Add("b.xml", FromTree(paperTree(n/2)))
	assembled := func() uint64 {
		return e.assembledFragments() + c.Engine("a.xml").assembledFragments() + c.Engine("b.xml").assembledFragments()
	}
	for _, fr := range []blockFront{engineFront(e), corpusFront("corpus", c, "")} {
		for _, after := range []int{0, 63, 64, n - 1} {
			for _, action := range []fault.Action{{Err: fault.ErrInjected}, {PanicMsg: "chaos: block"}} {
				var errs [2]error
				var deltas [2]uint64
				for i, run := range []func(context.Context, Request) (blockPage, error){fr.search, fr.stream} {
					plan := fault.NewPlan(fault.Rule{Point: fault.PointMaterialize, After: after, Count: 1, Action: action})
					before := assembled()
					_, errs[i] = run(fault.NewContext(context.Background(), plan), Request{Query: blockQuery})
					deltas[i] = assembled() - before
				}
				label := fmt.Sprintf("%s after=%d %+v", fr.name, after, action)
				if errs[0] == nil || errs[1] == nil {
					t.Fatalf("%s: Search err %v, Stream err %v; want the injected failure from both", label, errs[0], errs[1])
				}
				if !errors.Is(errs[0], fault.ErrInjected) && !errors.Is(errs[0], ErrInternal) {
					t.Fatalf("%s: Search err %v, want the injected failure", label, errs[0])
				}
				if first, _, _ := strings.Cut(errs[0].Error(), "\n"); !strings.HasPrefix(errs[1].Error(), first) {
					t.Fatalf("%s: Search err %q, Stream err %q", label, errs[0], errs[1])
				}
				if deltas[0] != uint64(after) || deltas[1] != uint64(after) {
					t.Fatalf("%s: Search assembled %d fragments, Stream %d; want %d", label, deltas[0], deltas[1], after)
				}
			}
		}
	}
}

// TestBlockDeadlineMidBlock: a BestEffort deadline that trips before
// candidate k — mid-block or on a block boundary — yields the finished
// prefix from Search and the drained Stream alike, marked TruncMaterialize,
// with a cursor that resumes at candidate k; resuming yields the rest of the
// unbounded result.
func TestBlockDeadlineMidBlock(t *testing.T) {
	const n = 129
	e := FromTree(paperTree(n))
	fr := engineFront(e)
	req := Request{Query: blockQuery, Budget: BestEffort}
	full, err := fr.search(context.Background(), req)
	if err != nil || len(full.frags) != n {
		t.Fatalf("%d fragments, err %v; want %d", len(full.frags), err, n)
	}
	for i, run := range []func(context.Context, Request) (blockPage, error){fr.search, fr.stream} {
		// The materialize stage checks the context once per candidate, last:
		// an allowance of calls-n+k trips it before candidate k.
		probe := &tripCtx{Context: context.Background(), after: math.MaxInt64}
		if _, err := run(probe, req); err != nil {
			t.Fatal(err)
		}
		calls := probe.calls.Load()
		for _, k := range []int{0, 1, 63, 64, 70, n - 1} {
			label := fmt.Sprintf("%s k=%d", [2]string{"Search", "Stream"}[i], k)
			ctx := &tripCtx{Context: context.Background(), after: calls - n + int64(k), err: context.DeadlineExceeded}
			got, err := run(ctx, req)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if len(got.frags) != k || !got.truncated || got.trunc != TruncMaterialize {
				t.Fatalf("%s: %d fragments, truncated %v (%q); want %d, true, %q", label, len(got.frags), got.truncated, got.trunc, k, TruncMaterialize)
			}
			requireSamePage(t, label+" prefix", blockPage{frags: got.frags, cursor: got.cursor, truncated: true, trunc: TruncMaterialize, stats: got.stats},
				blockPage{frags: full.frags[:k], cursor: got.cursor, truncated: true, trunc: TruncMaterialize, stats: got.stats})
			if next := nextOffset(t, got.cursor); next != k {
				t.Fatalf("%s: the cursor resumes at %d, want %d", label, next, k)
			}
			rest, err := fr.search(context.Background(), Request{Query: blockQuery, Budget: BestEffort, Cursor: got.cursor})
			if err != nil {
				t.Fatalf("%s: resume: %v", label, err)
			}
			requireSamePage(t, label+" resume", blockPage{frags: rest.frags, stats: rest.stats},
				blockPage{frags: full.frags[k:], stats: rest.stats})
		}
	}
}

// TestBorrowedEventsConcurrentSearchStream: eight goroutines mix collected
// and streamed requests on one engine while a tail append lands mid-way.
// Every unlimited request borrows its candidates' events from a pooled
// buffer that the next request reuses once released, so an answer that
// read a buffer after its release — or another request's — would differ
// from the serial one. Each answer must equal the serial answer from before
// the append or from after it. CI runs it under -race.
func TestBorrowedEventsConcurrentSearchStream(t *testing.T) {
	const record = "<paper><title>alpha appended</title><author>beta</author><year>gamma</year></paper>"
	reqs := []Request{
		{Query: blockQuery},
		{Query: blockQuery, Algorithm: MaxMatch},
		{Query: blockQuery, Semantics: SLCAOnly},
		{Query: blockQuery, Rank: true},
		{Query: "alpha beta"},
		{Query: "beta gamma", Rank: true, Limit: 10},
	}
	digest := func(p blockPage) string {
		var b strings.Builder
		for _, f := range p.frags {
			b.WriteString(fragmentDigest(f.Fragment))
		}
		return b.String()
	}
	serial := func(e *Engine) []string {
		out := make([]string, len(reqs))
		for i, req := range reqs {
			p, err := engineFront(e).search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = digest(p)
		}
		return out
	}
	const n = 150
	e := FromTree(paperTree(n))
	before := serial(e)
	twin := FromTree(paperTree(n))
	if err := twin.AppendXML("0", record); err != nil {
		t.Fatal(err)
	}
	after := serial(twin)

	fr := engineFront(e)
	var (
		wg       sync.WaitGroup
		appended = make(chan struct{})
		once     sync.Once
		mu       sync.Mutex
		failures []string
	)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 12 {
				if g == 0 && round == 6 {
					once.Do(func() {
						if err := e.AppendXML("0", record); err != nil {
							panic(err)
						}
						close(appended)
					})
				}
				for i, req := range reqs {
					run := fr.search
					if (g+round+i)%2 == 1 {
						run = fr.stream
					}
					p, err := run(context.Background(), req)
					got := ""
					if err == nil {
						got = digest(p)
					}
					if err != nil || got != before[i] && got != after[i] {
						mu.Lock()
						failures = append(failures, fmt.Sprintf("goroutine %d round %d request %+v: err %v, answer matches neither serial one", g, round, req, err))
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	<-appended
	for _, f := range failures {
		t.Error(f)
	}
	for i, req := range reqs {
		p, err := fr.search(context.Background(), req)
		if err != nil || digest(p) != after[i] {
			t.Fatalf("request %+v after the storm: err %v, or the answer differs from the serial one after the append", req, err)
		}
	}
}

// fragmentDigest spells out everything a fragment answers: its envelope
// fields, its rendered XML and every kept node.
func fragmentDigest(f *Fragment) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %v %x %d\n%s\n", f.Root, f.IsSLCA, math.Float64bits(f.Score), f.Pruned, f.XML())
	for i := range f.Nodes {
		fmt.Fprintf(&b, "%s %s\n", nodeFacts(f, i), f.NodeText(i))
	}
	return b.String()
}

// TestStreamSlabsOutliveRequest holds a stream's window slabs to the
// fragments carved from them: once a stream ends, its scratch goes back to
// the pool and the next request takes it, while goroutines still hold the
// finished stream's fragments and render them. Every retained fragment must
// keep answering what it answered — it would not if release kept a slab for
// the next request to carve into (and under -race the overlapping write and
// read are reported). CI runs it under -race.
func TestStreamSlabsOutliveRequest(t *testing.T) {
	e := FromTree(paperTree(150))
	reqs := []Request{
		{Query: blockQuery},
		{Query: blockQuery, Algorithm: MaxMatch},
		{Query: blockQuery, Semantics: SLCAOnly, Rank: true},
		{Query: blockQuery, Rank: true, Limit: 40},
	}
	want := make([][]string, len(reqs))
	for i, req := range reqs {
		res, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range res.Fragments {
			want[i] = append(want[i], fragmentDigest(f))
		}
	}
	type retained struct {
		req   int
		frags []*Fragment
	}
	var (
		wg   sync.WaitGroup
		kept []retained
	)
	check := func(r retained) {
		for j, f := range r.frags {
			if got := fragmentDigest(f); got != want[r.req][j] {
				t.Errorf("request %+v fragment %d changed after its stream ended:\n%s\nwant\n%s", reqs[r.req], j, got, want[r.req][j])
				return
			}
		}
	}
	for range 10 {
		for i, req := range reqs {
			r := retained{req: i}
			seq, _ := e.Stream(context.Background(), req)
			for f, err := range seq {
				if err != nil {
					t.Fatal(err)
				}
				r.frags = append(r.frags, f)
			}
			if len(r.frags) != len(want[i]) {
				t.Fatalf("request %+v streamed %d fragments, want %d", req, len(r.frags), len(want[i]))
			}
			kept = append(kept, r)
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(r) // while the next streams assemble
			}()
		}
	}
	wg.Wait()
	for _, r := range kept {
		check(r)
	}
}
