package query

import (
	"container/list"
	"sync"
)

// cacheKey names one selection question within a service: the shard's
// index and the exact bit patterns of the quantized cap and of z. Two
// caps share a key only when their effective caps are bitwise equal.
// The key is comparable and holds no pointers, so building and
// looking it up allocates nothing.
type cacheKey struct {
	shard   int
	capBits uint64
	zBits   uint64
}

// fingerprint hashes k for the doorkeeper (murmur3's 64-bit finalizer
// over the three fields). It never returns 0, the empty-slot value.
func (k cacheKey) fingerprint() uint64 {
	h := fmix64(uint64(k.shard)*0x9e3779b97f4a7c15 ^ k.capBits)
	h = fmix64(h ^ k.zBits)
	if h == 0 {
		h = 1
	}
	return h
}

func fmix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// lruCache is a fixed-capacity LRU of computed Responses that admits a
// key on its second miss. Each entry records the model hash it was
// computed under, and get answers only for a matching hash: a hot
// reload to a model with different bytes changes the hash, so stale
// entries can never be returned — purgeExcept merely reclaims their
// memory eagerly.
//
// Admission is TinyLFU's doorkeeper (Einziger et al., 2017): a
// direct-mapped table of key fingerprints with one slot per LRU entry.
// A put for a key the LRU does not hold inserts only when the key's
// slot already holds its fingerprint; otherwise it records the
// fingerprint and declines. Recurring keys are cached from their
// second computation on, while a key seen once never costs an insert
// and an eviction. Fingerprints leave out the model hash, so a key
// seen under one model is admitted on its first miss after a reload.
// A fingerprint collision only admits a key early; it cannot change
// what get returns.
type lruCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[cacheKey]*list.Element
	door  []uint64 // doorkeeper fingerprints, max slots
}

type cacheEntry struct {
	key  cacheKey
	hash string // model hash the entry was computed under
	resp Response
}

// newLRUCache returns a cache holding up to max entries; max <= 0
// disables caching (every get misses, every put is dropped).
func newLRUCache(max int) *lruCache {
	c := &lruCache{max: max, order: list.New(), items: map[cacheKey]*list.Element{}}
	if max > 0 {
		c.door = make([]uint64, max)
	}
	return c
}

// get returns the entry for key if it was computed under model hash.
func (c *lruCache) get(key cacheKey, hash string) (Response, bool) {
	if c.max <= 0 {
		return Response{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok || el.Value.(*cacheEntry).hash != hash {
		return Response{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// put caches resp, computed under model hash, for key: at once when the
// key is resident, otherwise only on the key's second miss. It reports
// whether the doorkeeper declined the insert.
func (c *lruCache) put(key cacheKey, hash string, resp Response) (declined bool) {
	if c.max <= 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		fp := key.fingerprint()
		slot := &c.door[fp%uint64(len(c.door))]
		if *slot != fp {
			*slot = fp
			return true
		}
		if c.order.Len() < c.max {
			el = c.order.PushFront(&cacheEntry{})
		} else {
			// Evict the least recently used entry, reusing its element.
			el = c.order.Back()
			delete(c.items, el.Value.(*cacheEntry).key)
		}
		c.items[key] = el
	}
	*el.Value.(*cacheEntry) = cacheEntry{key: key, hash: hash, resp: resp}
	c.order.MoveToFront(el)
	return false
}

// purgeExcept drops every entry computed under a model hash other than
// keep, returning how many were removed.
func (c *lruCache) purgeExcept(keep string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var purged int
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); e.hash != keep {
			delete(c.items, e.key)
			c.order.Remove(el)
			purged++
		}
		el = next
	}
	return purged
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
