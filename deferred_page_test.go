package xks

// Pins behind the deferred-events page: an unranked limited request builds
// its candidates from the LCA roots alone (no getRTF dispatch) and reports
// len(roots) as numLcas, so (a) every ELCA/SLCA root must cover the query —
// the count the dispatch's covering filter would have kept — and (b) such
// pages, and the cursor walks over them, must return exactly the unlimited
// answer sliced, down to the envelope and the cursor bytes.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"xks/internal/datagen"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/rtf"
	"xks/internal/workload"
)

// coverCase is one generated document with the queries run over it: the
// workload's own queries plus label-predicate variants.
type coverCase struct {
	name    string
	e       *Engine
	queries []string
}

// coverCases builds DBLP and XMark documents from the workloads, each grown
// by tail appends so the plans read through live delta segments.
func coverCases(t *testing.T) []coverCase {
	t.Helper()
	dblp, xmark := workload.DBLP(), workload.XMark()
	dSpecs, err := dblp.Specs(0, 400.0/20000.0)
	if err != nil {
		t.Fatal(err)
	}
	xSpecs, err := xmark.Specs(0, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		e         *Engine
		w         workload.Workload
		text, box string // a text-bearing label and a container label
		tail      string
	}{
		{"dblp", FromTree(datagen.DBLP(datagen.DBLPConfig{Seed: 7, NumRecords: 400, Keywords: dSpecs})),
			dblp, "title", "author", "<article><author>tail writer</author><title>%s</title></article>"},
		{"xmark", FromTree(datagen.XMark(datagen.XMarkConfig{Seed: 7, Items: 120, Keywords: xSpecs})),
			xmark, "text", "item", "<item><name>tail</name><description><text>%s</text></description></item>"},
	}
	var out []coverCase
	for _, c := range cases {
		queries, err := c.w.ExpandAll()
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries[:len(queries)/2] {
			terms := strings.Fields(q)
			if err := c.e.AppendXML("0", fmt.Sprintf(c.tail, q)); err != nil {
				t.Fatal(err)
			}
			queries = append(queries,
				c.text+":"+terms[0]+" "+strings.Join(terms[1:], " "),
				c.box+": "+q)
			if i%3 == 0 {
				queries = append(queries, strings.Join(terms, " "+c.text+":"))
			}
		}
		if c.e.DeltaInfo().Segments == 0 {
			t.Fatalf("%s: no live delta segments", c.name)
		}
		out = append(out, coverCase{c.name, c.e, queries})
	}
	return out
}

// TestEveryRootCovers: over ELCA and SLCA roots, every root's dispatched
// keyword nodes cover the query, so len(roots) is the covering count the
// full getRTF pass reports. A deferred page's numLcas rests on it.
func TestEveryRootCovers(t *testing.T) {
	checked := 0
	for _, c := range coverCases(t) {
		tab := c.e.params(Request{}).Tab
		for _, q := range c.queries {
			p, err := c.e.plan(q)
			var nm *index.ErrNoMatch
			if errors.As(err, &nm) {
				continue
			}
			if err != nil {
				t.Fatalf("%s %q: %v", c.name, q, err)
			}
			for _, slca := range []bool{false, true} {
				roots, err := lca.ELCAStackMergeIDsOrderedCtx(context.Background(), tab, p.Sets, nil)
				if slca {
					roots, err = lca.SLCAIDsCtx(context.Background(), tab, p.Sets)
				}
				if err != nil {
					t.Fatal(err)
				}
				covering, err := rtf.BuildIDsPlanned(context.Background(), tab, roots, p.Sets, nil, true)
				if err != nil {
					t.Fatal(err)
				}
				if len(covering) != len(roots) {
					t.Fatalf("%s %q slca=%v: %d roots, %d cover the query", c.name, q, slca, len(roots), len(covering))
				}
				checked += len(roots)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no query produced a root")
	}
}

// TestUnrankedPagesMatchUnlimited: unranked limit pages, reached by offset
// or by following cursors, return the unlimited answer sliced — fragments,
// numLcas, keyword stats and selected count — and each page's cursor is the
// one the sliced position mints (offset, last document and sequence, same
// snapshot and fingerprint).
func TestUnrankedPagesMatchUnlimited(t *testing.T) {
	e := grownEngine(t)
	big := crosscheckDBLPEngine(t, 8)
	w := workload.DBLP()
	queries, err := w.ExpandAll()
	if err != nil {
		t.Fatal(err)
	}
	type target struct {
		e       *Engine
		queries []string
	}
	for _, tg := range []target{{e, deltaQueries}, {big, queries[:6]}} {
		for _, q := range tg.queries {
			for _, sem := range []Semantics{AllLCA, SLCAOnly} {
				for _, algo := range []Algorithm{ValidRTF, MaxMatch} {
					base := Request{Query: q, Semantics: sem, Algorithm: algo}
					full, err := tg.e.Search(context.Background(), base)
					if err != nil {
						t.Fatal(err)
					}
					for _, limit := range []int{1, 3, 25} {
						walkUnrankedPages(t, tg.e, base, full, limit)
					}
				}
			}
		}
	}
}

func walkUnrankedPages(t *testing.T, e *Engine, base Request, full *Result, limit int) {
	t.Helper()
	total := full.Stats.NumLCAs
	var cur Cursor
	for off := 0; ; {
		label := fmt.Sprintf("%q %s/%s limit=%d offset=%d", base.Query, base.Algorithm, base.Semantics, limit, off)
		req := base
		req.Limit, req.Cursor = limit, cur
		page, err := e.Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		byOffset := base
		byOffset.Limit, byOffset.Offset = limit, off
		direct, err := e.Search(context.Background(), byOffset)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		end := min(off+limit, total)
		requireSameFragments(t, label, full.Fragments[off:end], page.Fragments)
		requireSameFragments(t, label+" by offset", full.Fragments[off:end], direct.Fragments)
		if page.Stats.NumLCAs != total || page.Stats.KeywordNodes != full.Stats.KeywordNodes ||
			page.Stats.Selected != end-off || strings.Join(page.Stats.Keywords, " ") != strings.Join(full.Stats.Keywords, " ") {
			t.Fatalf("%s: stats %+v, unlimited %+v", label, page.Stats, full.Stats)
		}
		var want Cursor
		if end < total {
			want = encodeCursor(cursorState{gen: e.Generation(), offset: end, fp: base.fingerprint()})
		}
		if page.Cursor != want || direct.Cursor != want {
			t.Fatalf("%s: cursors %q (walk) and %q (offset), want %q", label, page.Cursor, direct.Cursor, want)
		}
		if want == "" {
			return
		}
		off, cur = end, page.Cursor
	}
}

// TestUnrankedCorpusPagesMatchUnlimited is the corpus-level walk: pages
// across documents tile the unlimited answer, carry its per-document
// counts, and resume at the sliced position.
func TestUnrankedCorpusPagesMatchUnlimited(t *testing.T) {
	c := NewCorpus()
	c.Add("grow.xml", grownEngine(t))
	c.Add("dblp.xml", crosscheckDBLPEngine(t, 9))
	w := workload.DBLP()
	q, err := w.Expand(w.Queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"keyword search", q} {
		for _, sem := range []Semantics{AllLCA, SLCAOnly} {
			base := Request{Query: query, Semantics: sem}
			full, err := c.Search(context.Background(), base)
			if err != nil {
				t.Fatal(err)
			}
			total := full.Stats.NumLCAs
			var cur Cursor
			for off := 0; ; {
				label := fmt.Sprintf("corpus %q %s offset=%d", query, sem, off)
				req := base
				req.Limit, req.Cursor = 4, cur
				page, err := c.Search(context.Background(), req)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				end := min(off+4, total)
				if page.Stats.NumLCAs != total || fmt.Sprint(page.PerDocument) != fmt.Sprint(full.PerDocument) {
					t.Fatalf("%s: numLcas %d perDocument %v, unlimited %d %v", label,
						page.Stats.NumLCAs, page.PerDocument, total, full.PerDocument)
				}
				if len(page.Fragments) != end-off {
					t.Fatalf("%s: %d fragments, want %d", label, len(page.Fragments), end-off)
				}
				for i, f := range page.Fragments {
					if want := full.Fragments[off+i]; f.Document != want.Document {
						t.Fatalf("%s fragment %d: document %s, want %s", label, i, f.Document, want.Document)
					}
					requireSameFragments(t, label, []*Fragment{full.Fragments[off+i].Fragment}, []*Fragment{f.Fragment})
				}
				if end == total {
					if page.Cursor != "" {
						t.Fatalf("%s: last page carries cursor %q", label, page.Cursor)
					}
					break
				}
				st, err := page.Cursor.decode()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if st.offset != end || st.fp != base.fingerprint() {
					t.Fatalf("%s: cursor state %+v, want offset %d", label, st, end)
				}
				off, cur = end, page.Cursor
			}
		}
	}
}
