package service

import (
	"sync"
	"sync/atomic"

	"xks"
)

// Page is one buffered result page as SearchPage hands it to the API
// layer: the results plus, when the page is a cache entry, the slot that
// retains its encoded fragment records — so a cached page is encoded once,
// not once per hit. The API layer's encoder produces the records and owns
// their layout; the service only retains them and reports their size. The
// slot shares the entry's fate (same key, same version token, same
// eviction); there is no second cache.
type Page struct {
	*xks.Results
	// retained is set when the page is a cache entry served as a hit:
	// Encoded retains, adding the bytes to this count of what the cache's
	// entries hold (the service's xks_cache_body_bytes).
	retained *atomic.Int64

	mu  sync.Mutex // serializes the one encode of a cached page
	enc atomic.Pointer[[]byte]
	// held is what the page added to retained, or -1 once the cache let go
	// of it (dropped): an encode that finishes after that adds nothing.
	held atomic.Int64
}

// Encoded returns the page's encoded fragment records, running encode to
// produce them. A cache entry retains the result: encode runs at most once
// however many requests race for it, and every later call returns the same
// bytes. Any other page — truncated, pinned to an old snapshot, served with
// the cache disabled — retains nothing and encodes per call.
func (p *Page) Encoded(encode func() []byte) []byte {
	if p.retained == nil {
		return encode()
	}
	if e := p.enc.Load(); e != nil {
		return *e
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.enc.Load(); e != nil {
		return *e
	}
	e := encode()
	p.enc.Store(&e)
	if n := int64(len(e)); p.held.CompareAndSwap(0, n) {
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
