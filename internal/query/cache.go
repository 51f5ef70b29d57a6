package query

import (
	"sync"
	"sync/atomic"
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

// clockCache is a fixed-capacity cache of computed Responses that
// admits a key on its second miss and evicts by CLOCK (second chance,
// Corbató 1968): entries sit in a ring, each with a reference bit that
// a hit sets, and an eviction hand sweeps the ring, clearing set bits
// and reusing the first entry whose bit was already clear. CLOCK keeps
// no recency order, so a hit holds only the read lock and, once its
// entry's bit is set, writes nothing shared: concurrent hits never wait
// on one another.
//
// Each entry records the model hash it was computed under, and get
// answers only for a matching hash: a hot reload to a model with
// different bytes changes the hash, so stale entries can never be
// returned — purgeExcept merely reclaims their memory eagerly.
//
// Admission is TinyLFU's doorkeeper (Einziger et al., 2017): a
// direct-mapped table of key fingerprints with one slot per entry. A
// put for a key the cache does not hold inserts only when the key's
// slot already holds its fingerprint; otherwise it records the
// fingerprint and declines. The slots are atomic, so that decline —
// the common case under churning traffic — takes no lock at all.
// Recurring keys are cached from their second computation on, while a
// key seen once never costs an insert and an eviction. Fingerprints
// leave out the model hash, so a key seen under one model is admitted
// on its first miss after a reload. A fingerprint collision only
// admits a key early; it cannot change what get returns.
type clockCache struct {
	mu    sync.RWMutex
	max   int
	items map[cacheKey]*cacheEntry
	ring  []*cacheEntry // grown by append up to max
	hand  int           // next ring index the eviction sweep inspects
	door  []atomic.Uint64
}

type cacheEntry struct {
	key  cacheKey
	hash string // model hash the entry was computed under
	resp Response
	ref  atomic.Bool // set by a hit, cleared as the hand passes
}

// newClockCache returns a cache holding up to max entries; max <= 0
// disables caching (every get misses, every put is dropped).
func newClockCache(max int) *clockCache {
	c := &clockCache{max: max, items: map[cacheKey]*cacheEntry{}}
	if max > 0 {
		c.door = make([]atomic.Uint64, max)
	}
	return c
}

// get returns the entry for key if it was computed under model hash.
// On a miss, stale reports whether key was resident under another
// hash, which put takes as its residency hint.
func (c *clockCache) get(key cacheKey, hash string) (resp Response, ok, stale bool) {
	if c.max <= 0 {
		return Response{}, false, false
	}
	c.mu.RLock()
	e, resident := c.items[key]
	if resident && e.hash == hash {
		resp, ok = e.resp, true
		if !e.ref.Load() {
			e.ref.Store(true)
		}
	}
	c.mu.RUnlock()
	return resp, ok, resident && !ok
}

// put caches resp, computed under model hash, for key: at once when the
// key is resident, otherwise only on the key's second miss. resident
// is the caller's last sight of the key (get's stale result); a put
// for a key last seen absent consults the doorkeeper without locking,
// and only an admission or an update takes the write lock, which
// re-checks residency. It reports whether the doorkeeper declined the
// insert.
func (c *clockCache) put(key cacheKey, hash string, resp Response, resident bool) (declined bool) {
	if c.max <= 0 {
		return false
	}
	if !resident && c.doorkeep(key) {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	switch {
	case ok:
		e.ref.Store(true)
	case resident && c.doorkeep(key): // evicted since the caller looked
		return true
	default:
		e = c.admit()
		e.key = key
		c.items[key] = e
	}
	e.hash = hash
	e.resp = resp
	return false
}

// doorkeep reports whether the doorkeeper declines key: its slot does
// not yet hold key's fingerprint, which it records for next time.
func (c *clockCache) doorkeep(key cacheKey) bool {
	fp := key.fingerprint()
	slot := &c.door[fp%uint64(len(c.door))]
	if slot.Load() == fp {
		return false
	}
	slot.Store(fp)
	return true
}

// admit returns an entry for a new key, with its reference bit clear:
// a fresh one while the ring is below capacity, otherwise the victim
// of the CLOCK sweep, unmapped. The caller holds the write lock.
func (c *clockCache) admit() *cacheEntry {
	if len(c.ring) < c.max {
		e := &cacheEntry{}
		c.ring = append(c.ring, e)
		return e
	}
	for {
		e := c.ring[c.hand]
		c.hand = (c.hand + 1) % len(c.ring)
		if !e.ref.Load() {
			delete(c.items, e.key)
			return e
		}
		e.ref.Store(false)
	}
}

// purgeExcept drops every entry computed under a model hash other than
// keep, returning how many were removed. The ring is compacted in
// order and the hand restarts at its head.
func (c *clockCache) purgeExcept(keep string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.ring[:0]
	for _, e := range c.ring {
		if e.hash == keep {
			kept = append(kept, e)
		} else {
			delete(c.items, e.key)
		}
	}
	purged := len(c.ring) - len(kept)
	clear(c.ring[len(kept):])
	c.ring, c.hand = kept, 0
	return purged
}

func (c *clockCache) len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.ring)
}
