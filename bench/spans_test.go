package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Op: 0, ID: 0, Parent: -1, Layer: "op", Start: 0, End: 100},
		{Op: 0, ID: 1, Parent: 0, Layer: "lca", Start: 10, End: 40},
		{Op: 0, ID: 2, Parent: 0, Layer: "prune", Start: 40, End: 90},
		{Op: 0, ID: 3, Parent: 2, Layer: "store", Start: 50, End: 70},
		{Op: 0, ID: 4, Parent: 0, Layer: "ref", Start: 90, End: 95},
	}
	self := selfTimes(spans)
	for id, want := range []int64{15, 30, 30, 20, 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	rows, total := layerTable(spans)
	if total != 95*time.Nanosecond {
		t.Fatalf("attributed total = %v, want 95ns (the ref span is outside it)", total)
	}
	share := map[string]float64{}
	for _, r := range rows {
		share[r.Layer] = r.Share
	}
	if share["op"] != 15.0/95 || share["prune"] != 30.0/95 || share["store"] != 20.0/95 {
		t.Fatalf("shares = %v", share)
	}
}

func TestRecorderNestsAndNilRecordsNothing(t *testing.T) {
	r := newRecorder()
	op := r.beginOp("x")
	a := r.begin("lca", "f")
	b := r.begin("nid", "g")
	r.end(b, "events", int64(3))
	r.end(a)
	c := r.begin("rtf", "h")
	r.end(c)
	r.end(op)
	if len(r.spans) != 4 {
		t.Fatalf("%d spans, want 4", len(r.spans))
	}
	if r.spans[b].Parent != a || r.spans[a].Parent != op || r.spans[c].Parent != op || r.spans[op].Parent != -1 {
		t.Fatalf("parents: %+v", r.spans)
	}
	if r.spans[b].Counts["events"] != 3 {
		t.Fatal("counts not attached")
	}
	for _, s := range r.spans {
		if s.End < s.Start || s.Op != 0 {
			t.Fatalf("bad span %+v", s)
		}
	}
	var none *recorder
	none.end(none.begin("lca", "f")) // must not panic
	none.end(none.beginOp("x"))
}
