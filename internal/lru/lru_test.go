package lru

import (
	"fmt"
	"maps"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New[int](8, 1)
	if _, ok := c.Get("a", 0); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 0, 1)
	if v, ok := c.Get("a", 0); !ok || v != 1 {
		t.Fatalf("Get = %d, %t", v, ok)
	}
	c.Put("a", 0, 2) // update in place
	if v, _ := c.Get("a", 0); v != 2 {
		t.Fatalf("updated value = %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[int](2, 1)
	c.Put("a", 0, 1)
	c.Put("b", 0, 2)
	c.Get("a", 0)    // a is now most recent
	c.Put("c", 0, 3) // evicts b
	if _, ok := c.Get("b", 0); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a", 0); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c", 0); !ok {
		t.Error("c should be present")
	}
}

func TestGenerationMismatchEvicts(t *testing.T) {
	c := New[string](8, 2)
	c.Put("k", 1, "v1")
	if _, ok := c.Get("k", 2); ok {
		t.Fatal("stale generation should miss")
	}
	// The stale entry is gone even for the original generation.
	if _, ok := c.Get("k", 1); ok {
		t.Fatal("stale entry should have been evicted")
	}
	c.Put("k", 2, "v2")
	if v, ok := c.Get("k", 2); !ok || v != "v2" {
		t.Fatalf("Get = %q, %t", v, ok)
	}
}

func TestCapacityAcrossShards(t *testing.T) {
	for _, capacity := range []int{64, 100, 7} {
		c := New[int](capacity, 8)
		for i := 0; i < 1000; i++ {
			c.Put(fmt.Sprintf("key-%d", i), 0, i)
		}
		if n := c.Len(); n > capacity {
			t.Errorf("capacity %d: Len = %d", capacity, n)
		}
	}
}

func TestShardRounding(t *testing.T) {
	// Shard count must not exceed capacity, and odd shard requests round
	// up to a power of two.
	for _, tc := range []struct{ capacity, shards int }{{1, 16}, {3, 5}, {100, 0}, {7, 7}} {
		c := New[int](tc.capacity, tc.shards)
		n := len(c.shards)
		if n&(n-1) != 0 {
			t.Errorf("New(%d,%d): %d shards, not a power of two", tc.capacity, tc.shards, n)
		}
		c.Put("x", 0, 1)
		if _, ok := c.Get("x", 0); !ok {
			t.Errorf("New(%d,%d): basic get failed", tc.capacity, tc.shards)
		}
	}
}

// TestOnDropSeesEveryDroppedValue: every value put is either live or was
// handed to the hook exactly once — evicted, replaced, or dropped stale.
func TestOnDropSeesEveryDroppedValue(t *testing.T) {
	c := New[int](2, 1)
	dropped := map[int]int{}
	c.OnDrop(func(v int) { dropped[v]++ })
	c.Put("a", 0, 1)
	c.Put("b", 0, 2)
	c.Put("a", 0, 3)                // replaces 1
	c.Put("c", 0, 4)                // evicts b (2)
	if _, ok := c.Get("a", 1); ok { // stale: drops 3
		t.Fatal("a stale entry was served")
	}
	if _, ok := c.Get("c", 0); !ok {
		t.Fatal("live entry c missing")
	}
	if want := map[int]int{1: 1, 2: 1, 3: 1}; !maps.Equal(dropped, want) {
		t.Fatalf("dropped %v, want %v", dropped, want)
	}
}

func TestConcurrent(t *testing.T) {
	c := New[int](128, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("key-%d", i%50)
				c.Put(key, uint64(i%3), i)
				c.Get(key, uint64(i%3))
				if i%100 == 0 {
					c.Len()
				}
			}
		}(g)
	}
	wg.Wait()
}
