package xks

// Crosscheck of the delta read path: an engine that grew through tail
// appends (base index + delta segments) must serve byte-identical results
// to an engine freshly built from the final document — same roots, scores,
// node lists, XML and ASCII renderings — across all three algorithms ×
// both semantics, ranked and limited, BEFORE and AFTER compaction folds
// the segments into a new base. Same at the corpus layer, where one
// document grew and another did not.

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xks/internal/analysis"
	"xks/internal/index"
	"xks/internal/planner"
	"xks/internal/reference"
	"xks/internal/xmltree"
)

const deltaBaseXML = `<bib>` +
	`<paper><title>xml keyword search</title><author><name>liu</name></author></paper>` +
	`<paper><title>relaxed tightest fragments</title><author><name>kong</name></author></paper>` +
	`</bib>`

var deltaSnippets = []string{
	`<paper><title>keyword proximity search</title><author><name>chen</name></author></paper>`,
	`<paper><title>xml fragments ranking</title><author><name>liu</name><name>kong</name></author></paper>`,
	`<paper><title>tightest search trees</title><note>keyword note on xml</note></paper>`,
}

var deltaQueries = []string{
	"keyword search",
	"liu",
	"xml fragments",
	"kong keyword",
}

// grownEngine appends every snippet under the root — each a tail append
// landing in its own delta segment.
func grownEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := LoadString(deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range deltaSnippets {
		if err := e.AppendXML("0", s); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// rebuiltEngine builds the reference: the final document parsed in one go.
func rebuiltEngine(t *testing.T) *Engine {
	t.Helper()
	final := strings.Replace(deltaBaseXML, "</bib>", strings.Join(deltaSnippets, "")+"</bib>", 1)
	e, err := LoadString(final)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func requireSameResults(t *testing.T, phase string, ref, grown *Engine) {
	t.Helper()
	for _, q := range deltaQueries {
		for _, opts := range crosscheckOptions() {
			label := fmt.Sprintf("%s %q %s/%s rank=%v limit=%d",
				phase, q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit)
			want, err := ref.Search(context.Background(), withQuery(opts, q))
			if err != nil {
				t.Fatalf("%s: rebuilt: %v", label, err)
			}
			got, err := grown.Search(context.Background(), withQuery(opts, q))
			if err != nil {
				t.Fatalf("%s: grown: %v", label, err)
			}
			if !reflect.DeepEqual(want.Stats.Keywords, got.Stats.Keywords) {
				t.Fatalf("%s: keywords %v vs %v", label, want.Stats.Keywords, got.Stats.Keywords)
			}
			if want.Stats.KeywordNodes != got.Stats.KeywordNodes || want.Stats.NumLCAs != got.Stats.NumLCAs {
				t.Fatalf("%s: stats (%d,%d) vs (%d,%d)", label,
					want.Stats.KeywordNodes, want.Stats.NumLCAs,
					got.Stats.KeywordNodes, got.Stats.NumLCAs)
			}
			requireSameFragments(t, label, want.Fragments, got.Fragments)
		}
	}
}

// TestFoldedStatsEqualFreshBuild: after every tail append the planner
// statistics of the engine's snapshot — base plus live segments — equal
// those of an index built from the extended document, and so do the
// statistics of the base Compact folds.
func TestFoldedStatsEqualFreshBuild(t *testing.T) {
	e, err := LoadString(deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	var want planner.Stats
	for k, snippet := range deltaSnippets {
		if err := e.AppendXML("0", snippet); err != nil {
			t.Fatal(err)
		}
		doc, err := xmltree.ParseString(strings.Replace(deltaBaseXML, "</bib>", strings.Join(deltaSnippets[:k+1], "")+"</bib>", 1))
		if err != nil {
			t.Fatal(err)
		}
		want = index.Build(doc, analysis.New()).Stats()
		h := e.head.Load()
		snap, err := h.At(h.Tab.Len(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := snap.Stats(); got != want || snap.Segments() != k+1 {
			t.Fatalf("after %d appends: snapshot Stats = %+v over %d segments, fresh build %+v", k+1, got, snap.Segments(), want)
		}
		snap.Release()
	}
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := e.Index().Stats(); got != want {
		t.Fatalf("compacted Stats = %+v, fresh build %+v", got, want)
	}
}

func TestDeltaEngineMatchesRebuilt(t *testing.T) {
	ref := rebuiltEngine(t)
	grown := grownEngine(t)
	if di := grown.DeltaInfo(); di.Segments != int64(len(deltaSnippets)) || di.Postings == 0 {
		t.Fatalf("grown engine delta state = %+v, want %d live segments", di, len(deltaSnippets))
	}
	requireSameResults(t, "pre-compaction", ref, grown)

	folded, err := grown.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if folded != len(deltaSnippets) {
		t.Fatalf("Compact folded %d segments, want %d", folded, len(deltaSnippets))
	}
	if di := grown.DeltaInfo(); di.Segments != 0 || di.Postings != 0 || di.Compactions != 1 {
		t.Fatalf("post-compaction delta state = %+v", di)
	}
	requireSameResults(t, "post-compaction", ref, grown)

	// Compacting an already-compacted engine is a no-op.
	if n, err := grown.Compact(context.Background()); err != nil || n != 0 {
		t.Fatalf("idle Compact = (%d, %v), want (0, nil)", n, err)
	}
}

// TestDeltaCompareMatchesRebuilt extends the guarantee to the Compare
// surface (per-algorithm fragment counts and ratios), which reads through
// the same snapshot.
func TestDeltaCompareMatchesRebuilt(t *testing.T) {
	ref := rebuiltEngine(t)
	grown := grownEngine(t)
	for _, q := range deltaQueries {
		want, err := ref.Compare(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		got, err := grown.Compare(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatal(err)
		}
		if want.NumRTFs != got.NumRTFs || want.Ratios != got.Ratios {
			t.Fatalf("Compare(%q): rebuilt %+v vs grown %+v", q, want.Ratios, got.Ratios)
		}
	}
}

func TestDeltaCorpusMatchesRebuilt(t *testing.T) {
	build := func(grown bool) *Corpus {
		c := NewCorpus()
		var e *Engine
		if grown {
			e = grownEngine(t)
		} else {
			e = rebuiltEngine(t)
		}
		c.Add("grow.xml", e)
		c.Add("static.xml", FromTree(reference.Publications()))
		return c
	}
	ref, live := build(false), build(true)

	check := func(phase string) {
		t.Helper()
		queries := append([]string{reference.Q1, reference.QLiuKeyword}, deltaQueries...)
		for _, q := range queries {
			for _, opts := range crosscheckOptions() {
				label := fmt.Sprintf("%s corpus %q %s/%s rank=%v limit=%d",
					phase, q, opts.Algorithm, opts.Semantics, opts.Rank, opts.Limit)
				want, err := ref.Search(context.Background(), withQuery(opts, q))
				if err != nil {
					t.Fatalf("%s: rebuilt: %v", label, err)
				}
				got, err := live.Search(context.Background(), withQuery(opts, q))
				if err != nil {
					t.Fatalf("%s: grown: %v", label, err)
				}
				if !reflect.DeepEqual(want.PerDocument, got.PerDocument) {
					t.Fatalf("%s: PerDocument %v vs %v", label, want.PerDocument, got.PerDocument)
				}
				if len(want.Fragments) != len(got.Fragments) {
					t.Fatalf("%s: %d vs %d fragments", label, len(want.Fragments), len(got.Fragments))
				}
				wf := make([]*Fragment, len(want.Fragments))
				gf := make([]*Fragment, len(got.Fragments))
				for i := range want.Fragments {
					if want.Fragments[i].Document != got.Fragments[i].Document {
						t.Fatalf("%s fragment %d: document %s vs %s", label, i,
							want.Fragments[i].Document, got.Fragments[i].Document)
					}
					wf[i] = want.Fragments[i].Fragment
					gf[i] = got.Fragments[i].Fragment
				}
				requireSameFragments(t, label, wf, gf)
			}
		}
	}

	check("pre-compaction")
	folded, err := live.Compact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if folded != len(deltaSnippets) {
		t.Fatalf("corpus Compact folded %d segments, want %d", folded, len(deltaSnippets))
	}
	check("post-compaction")
}
