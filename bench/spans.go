package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the programs are a later change). Spans of one
// operation share Op; Parent is the span that was open when this one began,
// or -1.
type span struct {
	Op     int              `json:"op_id"`
	ID     int              `json:"span_id"`
	Parent int              `json:"parent_id"`
	Layer  string           `json:"layer"`
	Name   string           `json:"name"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

func (s *span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing: the replay runs once with one and once without, and the
// difference is the tracing overhead.
type recorder struct {
	t0    time.Time
	spans []span
	op    int
	open  []int // stack of open span IDs
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), op: -1} }

// beginOp opens the root span of the next operation.
func (r *recorder) beginOp(name string) int {
	if r == nil {
		return -1
	}
	r.op++
	r.open = r.open[:0]
	return r.begin("op", name)
}

func (r *recorder) begin(layer, name string) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Layer: layer, Name: name})
	r.open = append(r.open, id)
	r.spans[id].Start = int64(time.Since(r.t0))
	return id
}

// end closes the span (which must be the innermost open one) and attaches
// counts given as alternating key, value.
func (r *recorder) end(id int, counts ...any) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	s := &r.spans[id]
	s.End = now
	r.open = r.open[:len(r.open)-1]
	for i := 0; i+1 < len(counts); i += 2 {
		if s.Counts == nil {
			s.Counts = map[string]int64{}
		}
		s.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
}

// selfTimes returns each span's duration minus the part its children cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i := range spans {
		self[i] = spans[i].dur()
	}
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			self[p] -= spans[i].dur()
		}
	}
	return self
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	Layer string
	Spans int
	Self  time.Duration
	Share float64 // of the operations' total time
}

// layerTable sums self time by layer. The "op" layer's self time is the
// operations' time that no layer span covers (the unattributed share); the
// "ref" layer — the reference Engine.Search the replay is checked against —
// is excluded from the total.
func layerTable(spans []span) (rows []layerRow, total time.Duration) {
	self := selfTimes(spans)
	byLayer := map[string]*layerRow{}
	for i, s := range spans {
		row := byLayer[s.Layer]
		if row == nil {
			row = &layerRow{Layer: s.Layer}
			byLayer[s.Layer] = row
		}
		row.Spans++
		row.Self += time.Duration(self[i])
		if s.Layer != "ref" {
			total += time.Duration(self[i])
		}
	}
	for _, row := range byLayer {
		if total > 0 {
			row.Share = float64(row.Self) / float64(total)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows, total
}

func writeSpans(path, workloadName string, seed int64, spans []span) error {
	b, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workloadName, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
