// Package lru provides the sharded, generation-aware LRU cache behind the
// serving layer's query-result cache (internal/service).
//
// Keys are strings; the cache is split into power-of-two shards, each with
// its own lock, so concurrent readers on different keys rarely contend.
// Every entry carries the data generation it was computed against; a Get
// with a newer generation treats the entry as stale, evicts it, and
// reports a miss — the invalidation mechanism that lets Engine.AppendXML
// retire cached results without the cache knowing anything about engines.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a sharded LRU cache from string keys to values of type V.
// All methods are safe for concurrent use.
type Cache[V any] struct {
	shards []shard[V]
	mask   uint64
	onDrop func(V)
}

type shard[V any] struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	order *list.List // front = most recently used
}

type entry[V any] struct {
	key string
	gen uint64
	val V
}

// New builds a cache holding at most capacity entries in total, split over
// shards locks (rounded up to a power of two; <=0 picks 16). capacity
// must be positive; each shard holds at least one entry. The bound is
// enforced per shard (capacity distributed exactly across shards), so a
// skewed key distribution can make a hot shard evict before the cache as
// a whole is full.
func New[V any](capacity, shards int) *Cache[V] {
	if capacity <= 0 {
		panic("lru: capacity must be positive")
	}
	n := nextPow2(shards)
	if n > capacity {
		n = nextPow2(capacity) / 2
		if n < 1 {
			n = 1
		}
	}
	c := &Cache[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i].cap = capacity / n
		if i < capacity%n {
			c.shards[i].cap++
		}
		c.shards[i].items = make(map[string]*list.Element)
		c.shards[i].order = list.New()
	}
	return c
}

// OnDrop registers fn to be called with every value the cache lets go of:
// the least recently used entry a Put evicts, the value a Put replaces, and
// a stale entry a Get drops. fn runs under that value's shard lock, so it
// must be quick and must not call back into the cache. Register it before
// the cache is shared.
func (c *Cache[V]) OnDrop(fn func(V)) { c.onDrop = fn }

// drop hands a value the cache let go of to the OnDrop hook.
func (c *Cache[V]) drop(v V) {
	if c.onDrop != nil {
		c.onDrop(v)
	}
}

func nextPow2(n int) int {
	if n <= 0 {
		return 16
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// fnv1a hashes the key for shard selection.
func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

func (c *Cache[V]) shardFor(key string) *shard[V] {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the value cached under key if it exists and was stored at
// exactly generation gen; a generation mismatch evicts the stale entry and
// reports a miss.
func (c *Cache[V]) Get(key string, gen uint64) (V, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	ent := el.Value.(*entry[V])
	if ent.gen != gen {
		s.order.Remove(el)
		delete(s.items, key)
		c.drop(ent.val)
		var zero V
		return zero, false
	}
	s.order.MoveToFront(el)
	return ent.val, true
}

// Put stores val under key, tagged with the generation it was computed
// against, evicting the least recently used entry of the shard when full.
func (c *Cache[V]) Put(key string, gen uint64, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		ent := el.Value.(*entry[V])
		old := ent.val
		ent.gen, ent.val = gen, val
		s.order.MoveToFront(el)
		c.drop(old)
		return
	}
	s.items[key] = s.order.PushFront(&entry[V]{key: key, gen: gen, val: val})
	if s.order.Len() > s.cap {
		oldest := s.order.Remove(s.order.Back()).(*entry[V])
		delete(s.items, oldest.key)
		c.drop(oldest.val)
	}
}

// Len reports the number of live entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}
