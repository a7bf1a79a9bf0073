package service

import (
	"sync"
	"sync/atomic"

	"xks"
)

// Encoded is the wire form of a page's fragment records. The API layer's
// encoder produces it and owns the layout; the service only retains it with
// the page's cache entry and reports its size.
type Encoded struct {
	// Bytes holds the encoded records back to back.
	Bytes []byte
	// Ends[i] is the offset in Bytes just past record i.
	Ends []int
}

// Page is one result page as SearchPage and Stream hand it to the API
// layer: the results plus, when the page is a cache entry, the slot that
// retains its encoded fragment records — so a cached page is encoded once,
// not once per hit. The slot shares the entry's fate (same key, same
// version token, same eviction); there is no second cache.
type Page struct {
	*xks.Results
	// retained is set when the page is a cache entry served as a hit:
	// Encoded retains, adding the bytes to this count of what the cache's
	// entries hold (the service's xks_cache_body_bytes).
	retained *atomic.Int64

	mu  sync.Mutex // serializes the one encode of a cached page
	enc atomic.Pointer[Encoded]
	// held is what the page added to retained, or -1 once the cache let go
	// of it (dropped): an encode that finishes after that adds nothing.
	held atomic.Int64
}

// Encoded returns the page's encoded fragment records, running encode to
// produce them. A cache entry retains the result: encode runs at most once
// however many requests race for it, and every later call returns the same
// bytes. Any other page — truncated (a cached prefix included), pinned to an
// old snapshot, served with the cache disabled — retains nothing and encodes
// per call.
func (p *Page) Encoded(encode func() *Encoded) *Encoded {
	if p.retained == nil {
		return encode()
	}
	if e := p.enc.Load(); e != nil {
		return e
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.enc.Load(); e != nil {
		return e
	}
	e := encode()
	p.enc.Store(e)
	if n := int64(len(e.Bytes)); p.held.CompareAndSwap(0, n) {
		p.retained.Add(n)
	}
	return e
}

// dropped is the cache's OnDrop hook: the entry's retained bytes leave the
// count, and an encode still running keeps its bytes out of it.
func (p *Page) dropped() {
	if n := p.held.Swap(-1); n > 0 {
		p.retained.Add(-n)
	}
}

// StreamedFragment is one fragment of a Service.Stream. When it is replayed
// from a ready page (a cache hit, a joined flight, a resumed partial page)
// rather than materialized live, Page and Index locate it there, so a
// consumer can serve it from the page's encoded records.
type StreamedFragment struct {
	xks.CorpusFragment
	Page  *Page
	Index int
}
