package xks

// Chaos suite for the delta subsystem: concurrent append/search/compact
// storms under -race, a compactor crash that must leave the published head
// untouched, a scripted snapshot-pin leak the pinned gauge must expose, and
// cursors resuming across compaction. Every test runs the goroutine-leak
// check; CI runs these under -race.

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"xks/internal/analysis"
	"xks/internal/fault"
	"xks/internal/store"
	"xks/internal/xmltree"
)

// TestChaosConcurrentAppendSearchCompact storms an engine with tail
// appends, searches that render their fragments, and compactions at once —
// a loaded engine, and one over a mapped store, whose first append copies
// the columns the searches read: no request may error, no goroutine may
// leak, and at idle the pinned-snapshot refcount must be zero — every query
// released the snapshot it pinned.
func TestChaosConcurrentAppendSearchCompact(t *testing.T) {
	leakCheck(t)
	loaded, err := LoadString(deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := xmltree.ParseString(deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.xks")
	if err := store.Shred(doc, analysis.New()).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenAuto})
	if err != nil {
		t.Fatal(err)
	}
	mapped := FromStore(st)
	defer mapped.Close()
	for _, e := range []*Engine{loaded, mapped} {
		appendSearchCompactStorm(t, e)
	}
}

func appendSearchCompactStorm(t *testing.T, e *Engine) {
	t.Helper()
	const (
		appenders = 2
		searchers = 4
		rounds    = 25
	)
	errs := make(chan error, (appenders+searchers+1)*rounds)
	var wg sync.WaitGroup
	for i := 0; i < appenders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				snip := fmt.Sprintf(`<paper><title>chaos search %d-%d</title></paper>`, i, r)
				if err := e.AppendXML("0", snip); err != nil {
					errs <- fmt.Errorf("append %d-%d: %w", i, r, err)
				}
			}
		}(i)
	}
	for i := 0; i < searchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				res, err := e.Search(context.Background(), Request{Query: "search", Rank: true, Limit: 5})
				if err != nil {
					errs <- fmt.Errorf("search: %w", err)
					continue
				}
				if len(res.Fragments) == 0 {
					errs <- fmt.Errorf("search returned no fragments mid-storm")
				}
				for _, f := range res.Fragments {
					f.XML()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := e.Compact(context.Background()); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	di := e.DeltaInfo()
	if di.PinnedSnapshots != 0 {
		t.Errorf("pinned snapshots = %d at idle, want 0 (leaked pins)", di.PinnedSnapshots)
	}
	// Every append is visible: the storm's writes all landed.
	res, err := e.Search(context.Background(), Request{Query: "chaos"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumLCAs != appenders*rounds {
		t.Errorf("post-storm search sees %d appended papers, want %d", res.Stats.NumLCAs, appenders*rounds)
	}
}

// TestChaosCorpusAppendSearchCompact is the corpus-level storm: appends to
// one document race merged searches and corpus-wide compactions.
func TestChaosCorpusAppendSearchCompact(t *testing.T) {
	leakCheck(t)
	c := chaosCorpus(t)
	grow, err := LoadString(deltaBaseXML)
	if err != nil {
		t.Fatal(err)
	}
	c.Add("grow.xml", grow)

	const rounds = 20
	errs := make(chan error, 3*rounds)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			snip := fmt.Sprintf(`<paper><title>storm search %d</title></paper>`, r)
			if err := c.AppendXML("grow.xml", "0", snip); err != nil {
				errs <- fmt.Errorf("append %d: %w", r, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := c.Search(context.Background(), Request{Query: "search", Rank: true, Limit: 5}); err != nil {
				errs <- fmt.Errorf("search: %w", err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			if _, err := c.Compact(context.Background()); err != nil {
				errs <- fmt.Errorf("compact: %w", err)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if di := c.DeltaInfo(); di.PinnedSnapshots != 0 {
		t.Errorf("corpus pinned snapshots = %d at idle, want 0", di.PinnedSnapshots)
	}
}

// TestChaosCompactorCrashLeavesStateIntact injects a fault into the
// compactor between folding and publishing: the compaction fails, the
// published head keeps serving with its segments untouched, and a clean
// retry folds them all.
func TestChaosCompactorCrashLeavesStateIntact(t *testing.T) {
	leakCheck(t)
	ref := rebuiltEngine(t)
	grown := grownEngine(t)
	segs := grown.DeltaInfo().Segments

	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointCompact,
		Count:  1,
		Action: fault.Action{Err: fault.ErrInjected},
	})
	n, err := grown.Compact(fault.NewContext(context.Background(), plan))
	if !errors.Is(err, fault.ErrInjected) || n != 0 {
		t.Fatalf("crashed Compact = (%d, %v), want (0, injected)", n, err)
	}
	di := grown.DeltaInfo()
	if di.Segments != segs {
		t.Fatalf("segments = %d after crashed compaction, want the untouched %d", di.Segments, segs)
	}
	if di.Compactions != 0 {
		t.Errorf("crashed compaction was recorded as published (%d)", di.Compactions)
	}
	// Nothing half-applied: the engine still serves byte-identically.
	requireSameResults(t, "post-crash", ref, grown)

	// The retry succeeds and folds everything.
	n, err = grown.Compact(context.Background())
	if err != nil || n != int(segs) {
		t.Fatalf("retry Compact = (%d, %v), want (%d, nil)", n, err, segs)
	}
	requireSameResults(t, "post-retry", ref, grown)
}

// TestChaosSnapshotPinLeakDetected scripts a refcount leak: the injected
// fault makes one search skip its snapshot release, and the pinned gauge —
// the leak detector the metrics surface exposes — must stick at one while
// fault-free searches keep balancing theirs.
func TestChaosSnapshotPinLeakDetected(t *testing.T) {
	leakCheck(t)
	e := grownEngine(t)
	plan := fault.NewPlan(fault.Rule{
		Point:  fault.PointSnapshotPin,
		Count:  1,
		Action: fault.Action{Err: fault.ErrInjected},
	})
	if _, err := e.Search(fault.NewContext(context.Background(), plan), Request{Query: "search"}); err != nil {
		t.Fatalf("the pin fault must not fail the search: %v", err)
	}
	if got := e.DeltaInfo().PinnedSnapshots; got != 1 {
		t.Fatalf("pinned = %d after the scripted leak, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Search(context.Background(), Request{Query: "search"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.DeltaInfo().PinnedSnapshots; got != 1 {
		t.Fatalf("pinned = %d after fault-free searches, want the leaked 1", got)
	}
}

// TestChaosCursorResumesAcrossCompaction issues a cursor, appends, then
// compacts — the fold rewrites which structure holds the postings, so the
// resume must cut the folded base back to the cursor's snapshot and serve
// the pre-append page 2.
func TestChaosCursorResumesAcrossCompaction(t *testing.T) {
	leakCheck(t)
	e, err := LoadString(`<bib><paper><title>xml search</title></paper><paper><title>search trees</title></paper></bib>`)
	if err != nil {
		t.Fatal(err)
	}
	page1, err := e.Search(context.Background(), Request{Query: "search", Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if page1.Cursor == "" {
		t.Fatal("page 1 issued no cursor")
	}
	if err := e.AppendXML("0", `<paper><title>fresh search result</title></paper>`); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	pinned, err := e.Search(context.Background(), Request{Query: "search", Limit: 1, Cursor: page1.Cursor})
	if err != nil {
		t.Fatalf("post-compaction resume: %v, want the pinned page 2", err)
	}
	if pinned.Stats.NumLCAs != 2 {
		t.Fatalf("resumed scroll sees %d candidates through the folded base, want the pre-append 2", pinned.Stats.NumLCAs)
	}
	for _, f := range pinned.Fragments {
		if f.Root == page1.Fragments[0].Root {
			t.Fatalf("page 2 repeated page 1's fragment %s", f.Root)
		}
	}
}
