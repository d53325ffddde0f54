package serve

import (
	"container/list"
	"crypto/sha256"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Key is the exact-content identity shared across the serving layers:
// the SHA-256 of the binary, as computed once at ingestion and carried
// on dataset.Sample. The engine's prediction cache, hash-first probes
// and the collector's extraction cache are keyed by the same value, so
// a repeated submission pays for one digest and skips the model.
type Key = [sha256.Size]byte

// KeyOf returns the cache key of binary content.
func KeyOf(bin []byte) Key { return sha256.Sum256(bin) }

// SampleKey returns the cache key of an extracted sample, or ok=false
// when the sample carries no content digest (hand-built samples); such
// samples are still classified, just never cached or coalesced.
func SampleKey(s *dataset.Sample) (Key, bool) {
	return s.SHA256, s.SHA256 != (Key{})
}

// Shard-count heuristics: enough shards to keep lock contention low
// under concurrent serving, but never so many that a small capacity
// degenerates into one-entry shards with meaningless LRU order.
const (
	maxCacheShards     = 16
	minEntriesPerShard = 64
)

// Cache is a concurrency-safe, sharded, LRU-bounded map from content
// keys to values. Each shard has its own lock and recency list; keys
// spread over shards by their (uniformly distributed) leading digest
// byte. The capacity bound is enforced per shard, so it is exact for
// small caches (which collapse to one shard) and approximate within a
// shard's share for large ones.
type Cache[V any] struct {
	shards   []cacheShard[V]
	perShard int // max entries per shard; 0 = unbounded
	evicted  *atomic.Uint64
}

type cacheShard[V any] struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry[V any] struct {
	key Key
	val V
}

// NewCache builds a cache holding at most capacity entries;
// capacity <= 0 means unbounded.
func NewCache[V any](capacity int) *Cache[V] {
	return NewCacheCounted[V](capacity, nil)
}

// NewCacheCounted builds a cache whose evictions increment an external
// counter, letting an owner that replaces caches wholesale (the serving
// engine's epoch swap) keep one exact, monotonic eviction total even
// when a retired cache takes straggler inserts. A nil counter gives the
// cache its own.
func NewCacheCounted[V any](capacity int, evicted *atomic.Uint64) *Cache[V] {
	shards := maxCacheShards
	if capacity > 0 {
		if s := capacity / minEntriesPerShard; s < shards {
			shards = s
		}
		if shards < 1 {
			shards = 1
		}
	}
	if evicted == nil {
		evicted = &atomic.Uint64{}
	}
	c := &Cache[V]{shards: make([]cacheShard[V], shards), evicted: evicted}
	if capacity > 0 {
		c.perShard = (capacity + shards - 1) / shards
	}
	for i := range c.shards {
		c.shards[i].entries = map[Key]*list.Element{}
		c.shards[i].order = list.New()
	}
	return c
}

func (c *Cache[V]) shard(k Key) *cacheShard[V] {
	return &c.shards[int(k[0])%len(c.shards)]
}

// Get returns the cached value and marks it most recently used.
//
// fhc:hotpath
func (c *Cache[V]) Get(k Key) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts the value unless the key is already present. It returns
// the value that ended up cached and whether this call inserted it;
// when inserted=false the returned value is the concurrent winner's,
// letting racing callers converge on one entry. A full shard evicts its
// least recently used entry.
//
// fhc:hotpath
func (c *Cache[V]) Add(k Key, v V) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.entries[k]; ok {
		s.order.MoveToFront(el)
		return el.Value.(*cacheEntry[V]).val, false
	}
	s.entries[k] = s.order.PushFront(&cacheEntry[V]{key: k, val: v})
	if c.perShard > 0 && s.order.Len() > c.perShard {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.entries, oldest.Value.(*cacheEntry[V]).key)
		c.evicted.Add(1)
	}
	return v, true
}

// Len returns the current number of cached entries.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		c.shards[i].mu.Lock()
		n += c.shards[i].order.Len()
		c.shards[i].mu.Unlock()
	}
	return n
}

// Evicted returns the number of entries dropped to respect the bound.
func (c *Cache[V]) Evicted() uint64 { return c.evicted.Load() }
