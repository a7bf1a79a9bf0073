package service

import (
	"strconv"
	"strings"
	"testing"

	"xks"
	"xks/internal/reference"
)

// TestStoreOpenGauges pins the store cold-open exposition: absent until
// SetStoreOpen, then one xks_store_open_seconds sample labelled with the
// backing mode plus the mapped/heap byte gauges.
func TestStoreOpenGauges(t *testing.T) {
	sv := New(SingleDoc{Name: "d", Engine: xks.FromTree(reference.Publications())},
		Config{CacheSize: 4})
	var before strings.Builder
	sv.WritePrometheus(&before)
	if strings.Contains(before.String(), "xks_store_open_seconds") {
		t.Fatal("store-open gauges exposed before SetStoreOpen")
	}
	sv.Metrics().SetStoreOpen(StoreOpenInfo{
		Seconds: 0.012, Mode: "v3-mmap", MappedBytes: 4096, HeapBytes: 0,
	})
	var after strings.Builder
	sv.WritePrometheus(&after)
	out := after.String()
	for _, want := range []string{
		`xks_store_open_seconds{mode="v3-mmap"} 0.012`,
		"xks_store_mapped_bytes 4096",
		"xks_store_heap_bytes 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// Samples parses a scrape of sv — what GET /metrics serves — into each
// series' value, keyed by its name and labels as the exposition spells
// them; exported, like Buffered, for the service_test package.
func Samples(t testing.TB, sv *Service) map[string]float64 {
	t.Helper()
	var b strings.Builder
	sv.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("series %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// Sample reads one series off a scrape of sv, failing the test when the
// exposition has no such series.
func Sample(t testing.TB, sv *Service, series string) float64 {
	t.Helper()
	v, ok := Samples(t, sv)[series]
	if !ok {
		t.Fatalf("the exposition has no series %s", series)
	}
	return v
}
