package serve

import (
	"container/list"
	"sync"
)

// cacheEntry is one cached rendered response body.
type cacheEntry struct {
	key  string
	body []byte
}

// lruCache is an LRU over canonicalized query keys, bounded by total body
// bytes, so a handful of huge scan-list responses cannot blow the process's
// memory. Bodies larger than maxEntry are never stored at all: one response
// worth a whole cache generation would evict everything else for a single
// key's benefit. The cached value is the fully rendered JSON body, so a hit
// costs one map lookup and one write — no filter evaluation, no block
// decompression. A nil *lruCache (budget 0) never hits and never stores.
type lruCache struct {
	mu       sync.Mutex
	maxBytes int64
	maxEntry int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

// newLRU builds a cache holding at most maxBytes of body data; a budget of 0
// or less means no cache.
func newLRU(maxBytes int64) *lruCache {
	if maxBytes <= 0 {
		return nil
	}
	// One entry may take at most an eighth of the budget, so the cache
	// always holds a handful of entries even when bodies run large.
	maxEntry := maxBytes / 8
	if maxEntry < 1 {
		maxEntry = 1
	}
	return &lruCache{
		maxBytes: maxBytes,
		maxEntry: maxEntry,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

func (c *lruCache) get(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

func (c *lruCache) put(key string, body []byte) {
	if c == nil {
		return
	}
	if int64(len(body)) > c.maxEntry {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.bytes += int64(len(body)) - int64(len(e.body))
		e.body = body
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
		c.bytes += int64(len(body))
	}
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		c.ll.Remove(el)
		e := el.Value.(*cacheEntry)
		c.bytes -= int64(len(e.body))
		delete(c.items, e.key)
	}
}

func (c *lruCache) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bytesUsed reports the total cached body bytes, for the server.cache.bytes
// gauge.
func (c *lruCache) bytesUsed() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// entryCap reports the largest body this cache will store (0 = no cache).
// Streaming responses use it to cap their cache tee buffer.
func (c *lruCache) entryCap() int64 {
	if c == nil {
		return 0
	}
	return c.maxEntry
}
