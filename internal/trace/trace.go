// Package trace is the per-request execution tracing layer behind the
// explain surfaces (GET /search?explain=1, xksearch -explain) and the
// slow-query log: a tree of timed spans — one per pipeline stage, with
// per-document children under the corpus fan-out — carried on the
// context.Context through the whole query path.
//
// The layer is strictly opt-in and free when off. A request is traced only
// when a *Trace has been attached to its context (NewContext); everywhere
// else, SpanFromContext returns nil and every Span method is a nil-safe
// no-op, so the pipeline's hook points cost one context lookup per stage
// and zero allocations. The hot loops (the k-way merges in internal/lca and
// internal/rtf) never consult the context per event — they count locally
// and report once per call.
//
// Spans are concurrency-safe: the corpus candidate fan-out attaches one
// child span per document from concurrent workers. A span's duration is
// stamped by End (idempotent; an unfinished span exports the time elapsed
// so far), attributes are small key/value pairs (counters, dispositions),
// and the finished tree exports as JSON (the explain=1 wire shape) or as
// an indented text rendering (xksearch -explain, the slow-query log).
package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Trace is one request's span tree. Create with New, attach with
// NewContext, finish with Finish before exporting.
type Trace struct {
	root *Span
}

// Span is one timed region of a traced request: a name, a wall-clock
// duration, counter/string attributes, and child spans. All methods are
// nil-safe no-ops, so instrumentation sites never branch on whether
// tracing is enabled.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Time
	dur      time.Duration
	done     bool
	attrs    []Attr
	children []*Span
}

// Attr is one span attribute: an int64 counter or a string value.
type Attr struct {
	Key string
	Int int64
	Str string
	// IsStr distinguishes a string attribute from a counter (a zero-value
	// counter and an empty string would otherwise be ambiguous).
	IsStr bool
}

// New starts a trace whose root span begins now.
func New(name string) *Trace {
	return &Trace{root: &Span{name: name, start: time.Now()}}
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span. Nil-safe.
func (t *Trace) Finish() { t.Root().End() }

type spanKey struct{}

// NewContext returns ctx carrying the trace's root span as the current
// span; the pipeline's hook points pick it up with SpanFromContext. A nil
// trace returns ctx unchanged.
func NewContext(ctx context.Context, t *Trace) context.Context {
	return ContextWithSpan(ctx, t.Root())
}

// ContextWithSpan returns ctx with sp as the current span, so hook points
// downstream parent their spans under it. A nil span returns ctx unchanged
// — re-parenting never turns tracing on by itself.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFromContext returns the current span, or nil when the request is not
// traced (or ctx is nil). The nil result is usable: every Span method
// no-ops on a nil receiver.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// Child starts a new span under s and returns it. Safe for concurrent use
// (the corpus fan-out attaches per-document children from worker
// goroutines); nil-safe (returns nil, so an untraced caller chains no-ops).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stamps the span's duration. Idempotent: the first call wins, so a
// deferred End after an early return cannot overwrite an explicit one.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.dur = time.Since(s.start)
		s.done = true
	}
	s.mu.Unlock()
}

// SetInt records a counter attribute (last write wins per key).
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Int: v})
}

// SetStr records a string attribute (last write wins per key).
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Str: v, IsStr: true})
}

// SetBool records a boolean attribute as the strings "true"/"false".
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.SetStr(key, fmt.Sprintf("%t", v))
}

func (s *Span) set(a Attr) {
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == a.Key {
			s.attrs[i] = a
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

func (s *Span) durationLocked() time.Duration {
	if s.done {
		return s.dur
	}
	return time.Since(s.start)
}

// SpanJSON is the wire shape of an exported span — the explain=1 payload.
// Attrs maps counter attributes to int64 and string attributes to string.
type SpanJSON struct {
	Name       string         `json:"name"`
	DurationMS float64        `json:"durationMs"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanJSON    `json:"children,omitempty"`
}

// JSON exports the span tree rooted at s. Nil on a nil span.
func (s *Span) JSON() *SpanJSON {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := &SpanJSON{
		Name:       s.name,
		DurationMS: float64(s.durationLocked().Microseconds()) / 1000.0,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			if a.IsStr {
				out.Attrs[a.Key] = a.Str
			} else {
				out.Attrs[a.Key] = a.Int
			}
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.JSON())
	}
	return out
}

// Text renders the span tree as an indented list, one span per line —
// the xksearch -explain output and the slow-query log payload:
//
//	search 12.41ms
//	  plan 0.08ms keywordNodes=812
//	  candidates 9.77ms
//	    doc:dblp-0.xml 1.20ms candidates=31
//	  select 0.11ms selected=10
//	  materialize 2.31ms fragments=10
//
// Empty on a nil span.
func (s *Span) Text() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.writeText(&b, 0)
	return b.String()
}

func (s *Span) writeText(b *strings.Builder, depth int) {
	s.mu.Lock()
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	fmt.Fprintf(b, "%s %.2fms", s.name, float64(s.durationLocked().Microseconds())/1000.0)
	for _, a := range s.attrs {
		if a.IsStr {
			fmt.Fprintf(b, " %s=%s", a.Key, a.Str)
		} else {
			fmt.Fprintf(b, " %s=%d", a.Key, a.Int)
		}
	}
	b.WriteByte('\n')
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		c.writeText(b, depth+1)
	}
}
