package lru

import (
	"fmt"
	"sync"
	"testing"
)

// TestEvictionAndRecency pins the cache contract every user relies on: the
// least recently used entry goes first, Get and a duplicate Add both refresh
// recency, and a duplicate Add keeps the first stored value.
func TestEvictionAndRecency(t *testing.T) {
	c := New[string, []byte](2)
	c.Add("a", []byte("A"))
	c.Add("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Add("c", []byte("C"))
	if _, ok := c.Get("b"); ok {
		t.Error("LRU entry b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used entry a evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}

	// First put wins: re-adding a keeps the original bytes.
	c.Add("a", []byte("A2"))
	if got, _ := c.Get("a"); string(got) != "A" {
		t.Errorf("duplicate Add replaced the value: %q", got)
	}

	// A duplicate Add refreshes recency: after Get(c), a is the LRU entry,
	// so adding d would evict it — unless re-adding a moved it to the front.
	c.Get("c")
	c.Add("a", nil)
	c.Add("d", []byte("D"))
	if _, ok := c.Get("c"); ok {
		t.Error("c survived although the duplicate Add of a made c the LRU entry")
	}
	if got, ok := c.Get("a"); !ok || string(got) != "A" {
		t.Errorf("a = %q, %v after its duplicate Add; want the original value kept", got, ok)
	}
}

// TestEvictionOrder fills a cache past capacity in order and checks entries
// leave oldest first.
func TestEvictionOrder(t *testing.T) {
	c := New[int, int](3)
	for i := 0; i < 6; i++ {
		c.Add(i, i*10)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(i); ok {
			t.Errorf("entry %d survived; the oldest entries must be evicted first", i)
		}
	}
	for i := 3; i < 6; i++ {
		if v, ok := c.Get(i); !ok || v != i*10 {
			t.Errorf("entry %d = %d, %v; want %d, true", i, v, ok, i*10)
		}
	}
}

// TestConcurrentUse hammers one cache from several goroutines; run under
// -race it proves the locking, and the bound holds throughout.
func TestConcurrentUse(t *testing.T) {
	c := New[string, int](16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprint((g*7 + i) % 40)
				c.Add(key, g)
				c.Get(key)
				if n := c.Len(); n > 16 {
					t.Errorf("Len = %d, above capacity 16", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n != 16 {
		t.Errorf("Len = %d after the storm, want 16", n)
	}
}
