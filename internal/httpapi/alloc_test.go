//go:build !race

// Allocation tests run race-free (the detector skews allocation counts);
// CI runs them in the benchmark job with -run Alloc.

package httpapi

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"xks"
	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/service"
	"xks/internal/store"
)

// discardWriter is a ResponseWriter that keeps nothing, so the handler's
// own allocations are all AllocsPerRun sees.
type discardWriter struct {
	h http.Header
	n int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(int)             {}
func (w *discardWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestHitAllocsIndependentOfPageSize: a hit encodes the envelope and hands
// the entry's retained bytes to the writer, so what it allocates does not
// depend on how large the page is.
func TestHitAllocsIndependentOfPageSize(t *testing.T) {
	// The same request against a small and a large document, so parsing
	// and keying cost the same and only the page differs.
	const path = "/search?q=alpha+beta&slca=1"
	hit := func(records, occurrences int) (allocs float64, size int) {
		tree := datagen.DBLP(datagen.DBLPConfig{
			Seed:       42,
			NumRecords: records,
			Keywords:   []datagen.KeywordSpec{{Word: "alpha", Count: occurrences}, {Word: "beta", Count: occurrences}},
		})
		engine := xks.FromStore(store.Shred(tree, analysis.New()))
		h := NewHandler(service.New(service.SingleDoc{Name: "dblp", Engine: engine}, service.Config{CacheSize: 8}), nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil)) // the miss fills the entry
		w.n = 0
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		size = w.n
		allocs = testing.AllocsPerRun(50, func() {
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		})
		return allocs, size
	}
	small, smallSize := hit(20, 3)
	large, largeSize := hit(2000, 4000)
	if smallSize > 2<<10 || largeSize < 300<<10 {
		t.Fatalf("pages are %d and %d bytes; want about 1 KB and at least 300 KB", smallSize, largeSize)
	}
	if small != large {
		t.Fatalf("a hit allocates %v times for a %d-byte page and %v times for a %d-byte page; want the same",
			small, smallSize, large, largeSize)
	}
}
