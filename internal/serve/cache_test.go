package serve

import (
	"sync"
	"testing"

	"repro/internal/dataset"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	k[31] = b
	return k
}

func TestCacheAddGet(t *testing.T) {
	c := NewCache[int](0)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("empty cache returned a value")
	}
	if v, inserted := c.Add(key(1), 10); !inserted || v != 10 {
		t.Fatalf("Add = (%d, %v), want (10, true)", v, inserted)
	}
	// A second Add must lose to the existing entry.
	if v, inserted := c.Add(key(1), 99); inserted || v != 10 {
		t.Fatalf("racing Add = (%d, %v), want (10, false)", v, inserted)
	}
	if v, ok := c.Get(key(1)); !ok || v != 10 {
		t.Fatalf("Get = (%d, %v), want (10, true)", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheLRUEvictionOrder(t *testing.T) {
	c := NewCache[int](2) // small capacity collapses to one shard
	c.Add(key(1), 1)
	c.Add(key(2), 2)
	c.Get(key(1)) // promote 1; 2 becomes the LRU entry
	c.Add(key(3), 3)
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	_, ok1 := c.Get(key(1))
	_, ok3 := c.Get(key(3))
	if !ok1 || !ok3 {
		t.Fatal("recently used entries evicted")
	}
	if c.Evicted() != 1 {
		t.Fatalf("Evicted = %d, want 1", c.Evicted())
	}
}

func TestCacheSharding(t *testing.T) {
	c := NewCache[int](maxCacheShards * minEntriesPerShard)
	if len(c.shards) != maxCacheShards {
		t.Fatalf("shards = %d, want %d", len(c.shards), maxCacheShards)
	}
	// Keys differing in the leading byte land on different shards but
	// remain individually retrievable.
	for b := 0; b < 255; b++ {
		c.Add(key(byte(b)), b)
	}
	for b := 0; b < 255; b++ {
		if v, ok := c.Get(key(byte(b))); !ok || v != b {
			t.Fatalf("key %d: Get = (%d, %v)", b, v, ok)
		}
	}
	if c.Len() != 255 {
		t.Fatalf("Len = %d, want 255", c.Len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := NewCache[int](128)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := key(byte(i % 200))
				if v, ok := c.Get(k); ok && v != i%200 {
					t.Errorf("key %d holds %d", i%200, v)
					return
				}
				c.Add(k, i%200)
			}
		}(w)
	}
	wg.Wait()
}

func TestSampleKey(t *testing.T) {
	if _, ok := SampleKey(&dataset.Sample{}); ok {
		t.Fatal("zero-digest sample produced a key")
	}
	bin := []byte("not really elf, key only")
	s := dataset.Sample{SHA256: KeyOf(bin)}
	k, ok := SampleKey(&s)
	if !ok || k != KeyOf(bin) {
		t.Fatal("sample key does not round-trip the content digest")
	}
}
